import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinenav.errors import BadInput, LevelMismatch, NegativeBreach
from spinenav.geom import axis_basis
from spinenav.planning import (
    PedicleModel,
    ScrewPlan,
    _max_depth,
    breach_depth,
    grade_gertzbein,
    grade_percent,
    grade_report_csv,
    plan_deviation,
    validate_plan,
)


AXIS_LEN = 40.0


def _pedicle(waist=4.0, ends=None, level="L3-left", direction=(0, 0, 1.0)):
    ends = waist if ends is None else ends
    d = np.asarray(direction, float)
    d = d / np.linalg.norm(d)
    p0 = np.array([0.0, 0.0, 0.0])
    return PedicleModel(level, p0, p0 + AXIS_LEN * d,
                        ((0.0, ends), (0.5, waist), (1.0, ends)))


def _screw(entry=(0, 0, 0), direction=(0, 0, 1.0), diameter=6.0,
           length=AXIS_LEN, level="L3-left"):
    d = np.asarray(direction, float)
    return ScrewPlan(level, np.asarray(entry, float), d / np.linalg.norm(d),
                     diameter, length)


# -- breach_depth ---------------------------------------------------------------


def test_breach_zero_when_contained():
    # screw radius 3 inside a corridor of radius >= 4 everywhere
    assert breach_depth(_screw(), _pedicle(waist=4.0)) == 0.0


def test_breach_at_waist():
    # corridor narrows to 2.5 at the waist: 3.0 - 2.5 = 0.5
    assert breach_depth(_screw(), _pedicle(waist=2.5, ends=4.0)) == pytest.approx(0.5, abs=1e-9)


def test_breach_parallel_offset():
    # 2 mm lateral offset, screw radius 3, corridor radius 4: (2+3)-4 = 1
    screw = _screw(entry=(2.0, 0.0, 0.0))
    assert breach_depth(screw, _pedicle(waist=4.0)) == pytest.approx(1.0, abs=1e-9)


def _cylinder_sampling_oracle(screw, pedicle, n_axial=400, n_azimuth=72):
    """Dense samples on the screw cylinder surface graded against the
    corridor; independent of the centerline-formula implementation."""
    d = screw.direction
    up = np.array([1.0, 0.0, 0.0]) if abs(d[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = np.cross(up, d)
    u /= np.linalg.norm(u)
    v = np.cross(d, u)
    t = np.linspace(0.0, 1.0, n_axial)
    phi = np.linspace(0.0, 2 * np.pi, n_azimuth, endpoint=False)
    centers = screw.entry[None, :] + (t * screw.length)[:, None] * d[None, :]
    ring = (np.cos(phi)[:, None] * u[None, :] + np.sin(phi)[:, None] * v[None, :])
    pts = (centers[:, None, :] + screw.diameter / 2.0 * ring[None, :, :]).reshape(-1, 3)

    axis = pedicle.p1 - pedicle.p0
    s = (pts - pedicle.p0) @ axis / float(axis @ axis)
    perp = pts - (pedicle.p0[None, :] + s[:, None] * axis[None, :])
    rho = np.linalg.norm(perp, axis=1)
    inside = (s >= 0.0) & (s <= 1.0)
    if not np.any(inside):
        return 0.0
    depth = rho[inside] - pedicle.radius_at(s[inside])
    return float(max(0.0, float(np.max(depth))))


def test_breach_matches_cylinder_oracle_on_named_cases():
    cases = [
        (_screw(), _pedicle(waist=2.5, ends=4.0)),
        (_screw(entry=(2.0, 0.0, 0.0)), _pedicle(waist=4.0)),
        (_screw(entry=(1.0, -1.5, 0.0), direction=(0.05, 0.02, 1.0)),
         _pedicle(waist=3.0, ends=4.5)),
    ]
    for screw, pedicle in cases:
        assert breach_depth(screw, pedicle) == pytest.approx(
            _cylinder_sampling_oracle(screw, pedicle), abs=0.05)


def test_breach_matches_cylinder_oracle_200_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        axis_dir = rng.normal(size=3)
        axis_dir /= np.linalg.norm(axis_dir)
        waist = rng.uniform(2.0, 4.5)
        ends = waist + rng.uniform(0.3, 2.0)
        knot = rng.uniform(0.35, 0.65)
        p0 = rng.uniform(-20, 20, size=3)
        length = rng.uniform(30.0, 50.0)
        pedicle = PedicleModel("L", p0, p0 + length * axis_dir,
                               ((0.0, ends), (knot, waist), (1.0, ends)))
        # screw roughly along the corridor: clinical obliquity <= ~8 deg
        tilt = rng.uniform(0.0, 0.14)
        perp = np.cross(axis_dir, rng.normal(size=3))
        perp /= np.linalg.norm(perp)
        d = axis_dir * np.cos(tilt) + perp * np.sin(tilt)
        offset = rng.uniform(0.0, 3.0) * perp
        screw = ScrewPlan("L", p0 + offset - 2.0 * d, d,
                          rng.uniform(4.0, 7.0), np.clip(length + 4.0, 20, 100))
        assert breach_depth(screw, pedicle) == pytest.approx(
            _cylinder_sampling_oracle(screw, pedicle), abs=0.05)


def test_breach_monotone_in_lateral_offset():
    pedicle = _pedicle(waist=3.5, ends=4.0)
    prev = -1.0
    for off in np.linspace(0.0, 6.0, 25):
        b = breach_depth(_screw(entry=(off, 0.0, 0.0)), pedicle)
        assert b >= prev - 1e-12
        prev = b


def test_breach_far_screw_reports_full_clearance():
    screw = _screw(entry=(30.0, 0.0, 0.0))  # far outside 3x max radius
    b = breach_depth(screw, _pedicle(waist=4.0))
    assert b == pytest.approx(30.0 + 3.0 - 4.0, abs=1e-9)


def test_breach_exact_at_knot_between_samples():
    # the waist knot at s = 0.503 (20.12 mm) falls between 0.25 mm samples;
    # the exact breach there is 3 - 1 = 2.0, which grades C, not B
    pedicle = PedicleModel("L3-left", np.zeros(3), np.array([0.0, 0.0, AXIS_LEN]),
                           ((0.0, 4.0), (0.503, 1.0), (1.0, 4.0)))
    b = breach_depth(_screw(), pedicle)
    assert b == 2.0
    assert grade_gertzbein(b).value == "C"


def test_breach_shaft_outside_corridor_grades_deeper_end_on_tie():
    # perpendicular shaft below s = 0: both ends are equally close to the
    # corridor, so the deeper one (30 mm off axis) is graded
    screw = _screw(entry=(-10.0, 0.0, -5.0), direction=(1.0, 0.0, 0.0))
    assert breach_depth(screw, _pedicle(waist=4.0)) == 30.0 + 3.0 - 4.0


def _sampled_depth(screw, pedicle, spacing=0.25):
    """Signed maximum depth over centerline samples at <= spacing mm, which
    can only miss the exact maximum; a shaft wholly outside s in [0, 1] is
    graded at its first closest sample, against the clamped radius."""
    n = max(int(np.ceil(screw.length / spacing)), 1)
    t = np.linspace(0.0, 1.0, n + 1)
    pts = screw.entry + (t * screw.length)[:, None] * screw.direction
    axis = pedicle.p1 - pedicle.p0
    s = (pts - pedicle.p0) @ axis / float(axis @ axis)
    rho = np.linalg.norm(pts - (pedicle.p0 + s[:, None] * axis), axis=1)
    depth = rho + screw.diameter / 2.0 - pedicle.radius_at(s)
    inside = (s >= 0.0) & (s <= 1.0)
    if not np.any(inside):
        return float(depth[np.argmin(np.abs(np.clip(s, 0.0, 1.0) - s))])
    return float(np.max(depth[inside]))


@st.composite
def _screw_in_corridor(draw):
    """A corridor with 1-3 interior knots and a screw within ~57 degrees of
    its axis, entering anywhere from well before to well past it."""
    def f(lo, hi):
        return draw(st.floats(lo, hi))

    theta, phi = f(0.0, np.pi), f(0.0, 2.0 * np.pi)
    axis_dir = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                         np.cos(theta)])
    u, v, _ = axis_basis(axis_dir)
    knots = sorted(draw(st.lists(st.floats(0.02, 0.98), min_size=1, max_size=3,
                                 unique=True)))
    profile = ([(0.0, f(1.0, 6.0))] + [(k, f(1.0, 6.0)) for k in knots]
               + [(1.0, f(1.0, 6.0))])
    p0 = np.array([f(-20.0, 20.0) for _ in range(3)])
    corridor = f(25.0, 50.0)
    pedicle = PedicleModel("L", p0, p0 + corridor * axis_dir, tuple(profile))
    tilt, spin = f(0.0, 1.0), f(0.0, 2.0 * np.pi)
    lateral = np.cos(spin) * u + np.sin(spin) * v
    d = np.cos(tilt) * axis_dir + np.sin(tilt) * lateral
    entry = p0 + f(0.0, 6.0) * lateral + f(-60.0, 40.0) * axis_dir
    screw = ScrewPlan("L", entry, d / np.linalg.norm(d), f(2.0, 10.0),
                      f(20.0, 100.0))
    return screw, pedicle


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_screw_in_corridor())
def test_exact_depth_bounds_sampled_and_sets_clearance(case):
    screw, pedicle = case
    depth, _ = _max_depth(screw, pedicle)
    assert depth >= _sampled_depth(screw, pedicle) - 1e-12
    assert breach_depth(screw, pedicle) == max(0.0, depth)
    v = validate_plan(screw, pedicle)
    assert v.breach_mm == max(0.0, depth)
    assert v.min_clearance_mm == -depth


# -- grading ----------------------------------------------------------------------


def test_grade_bins_definitional():
    assert grade_gertzbein(0.0).value == "A"
    assert grade_gertzbein(1.5).value == "B"
    assert grade_gertzbein(4.0).value == "D"
    assert grade_gertzbein(7.0).value == "E"
    assert grade_gertzbein(2.0).value == "C"  # boundary goes to the worse bin
    assert grade_gertzbein(6.0).value == "E"


def test_grade_negative_rejected():
    with pytest.raises(NegativeBreach):
        grade_gertzbein(-0.1)


def test_grade_partition_and_monotone_on_grid():
    grid = np.round(np.arange(0.0, 10.0 + 1e-9, 0.01), 10)
    prev_rank = -1
    for b in grid:
        g = grade_gertzbein(float(b))
        assert g.value in "ABCDE"
        assert g.rank() >= prev_rank or True  # rank may stay equal
        # monotonicity against the previous grid point
        assert g.rank() >= prev_rank
        prev_rank = g.rank() if b > 0 else g.rank()


# -- plan deviation ----------------------------------------------------------------


def test_plan_deviation_identity():
    p = _screw()
    dev = plan_deviation(p, p)
    assert (dev.entry_offset_mm, dev.angle_deg, dev.tip_offset_mm) == (0.0, 0.0, 0.0)


def test_plan_deviation_pure_tilt():
    p = _screw(length=45.0)
    tilt = np.deg2rad(2.0)
    d2 = np.array([np.sin(tilt), 0.0, np.cos(tilt)])
    a = _screw(direction=d2, length=45.0)
    dev = plan_deviation(p, a)
    assert dev.angle_deg == pytest.approx(2.0, abs=1e-9)
    assert dev.entry_offset_mm == 0.0
    # chord length: 2 * L * sin(angle/2), and direct vector computation
    expected = float(np.linalg.norm(p.tip() - a.tip()))
    assert dev.tip_offset_mm == pytest.approx(expected, abs=1e-12)
    assert dev.tip_offset_mm == pytest.approx(2 * 45.0 * np.sin(np.deg2rad(1.0)),
                                              abs=1e-9)


def test_plan_deviation_parallel_shift():
    p = _screw()
    a = _screw(entry=(1.0, 0.0, 0.0))
    dev = plan_deviation(p, a)
    assert dev.entry_offset_mm == pytest.approx(1.0)
    assert dev.angle_deg == pytest.approx(0.0, abs=1e-9)
    assert dev.tip_offset_mm == pytest.approx(1.0)


def test_plan_deviation_level_mismatch():
    with pytest.raises(LevelMismatch):
        plan_deviation(_screw(level="L3-left"), _screw(level="L4-left"))


@pytest.mark.parametrize("field", ["entry", "direction"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_screw_plan_rejects_non_finite(field, bad):
    values = {"entry": np.zeros(3), "direction": np.array([0.0, 0.0, 1.0])}
    values[field][0] = bad
    with pytest.raises(ValueError, match="finite"):
        ScrewPlan("L3-left", values["entry"], values["direction"], 6.0, AXIS_LEN)


@pytest.mark.parametrize("field", ["p0", "p1"])
@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_pedicle_model_rejects_non_finite(field, bad):
    values = {"p0": np.zeros(3), "p1": np.array([0.0, 0.0, AXIS_LEN])}
    values[field][1] = bad
    with pytest.raises(ValueError, match="finite"):
        PedicleModel("L3-left", values["p0"], values["p1"],
                     ((0.0, 4.0), (1.0, 4.0)))


def test_pedicle_model_rejects_zero_length_axis():
    with pytest.raises(BadInput, match="pedicle axis must have positive length"):
        PedicleModel("L3-left", np.ones(3), np.ones(3), ((0.0, 4.0), (1.0, 4.0)))


@pytest.mark.parametrize("profile", [
    ((0.0, 4.0), (0.5, np.nan), (1.0, 4.0)),
    ((0.0, 4.0), (0.5, np.inf), (1.0, 4.0)),
    ((0.0, 4.0), (np.nan, 3.0), (1.0, 4.0)),
    ((0.0, np.nan), (1.0, 4.0)),
])
def test_pedicle_model_rejects_non_finite_radius_profile(profile):
    with pytest.raises(ValueError, match="finite"):
        PedicleModel("L3-left", np.zeros(3), np.array([0.0, 0.0, AXIS_LEN]), profile)


# -- validate_plan ------------------------------------------------------------------


def test_validate_accepts_centered_plan_with_clearance():
    v = validate_plan(_screw(), _pedicle(waist=4.0), safety_margin_mm=0.5)
    assert v.accepted
    assert v.breach_mm == 0.0
    assert v.min_clearance_mm == pytest.approx(1.0, abs=1e-9)


def test_validate_rejects_touching_plan():
    # clearance exactly zero at the waist (corridor 3.0, screw radius 3.0)
    v = validate_plan(_screw(), _pedicle(waist=3.0, ends=4.0), safety_margin_mm=0.5)
    assert not v.accepted
    assert v.breach_mm == 0.0
    assert v.min_clearance_mm == pytest.approx(0.0, abs=1e-9)


def test_validate_zero_clearance_is_positive_zero():
    v = validate_plan(_screw(), _pedicle(waist=3.0, ends=4.0), safety_margin_mm=0.5)
    assert repr(v.min_clearance_mm) == "0.0"


def test_validate_rejects_shaft_that_never_enters_pedicle():
    # coaxial shaft 10-50 mm behind the entry: clearance 4 - 3 = 1 mm at its
    # closest end, but no part of it is inside the pedicle
    v = validate_plan(_screw(entry=(0.0, 0.0, -50.0)), _pedicle(waist=4.0),
                      safety_margin_mm=0.5)
    assert not v.accepted
    assert v.breach_mm == 0.0
    assert v.min_clearance_mm == 1.0


def test_validate_rejects_breaching_plan_with_depth():
    screw = _screw(entry=(2.0, 0.0, 0.0))
    pedicle = _pedicle(waist=4.0)
    v = validate_plan(screw, pedicle, safety_margin_mm=0.5)
    assert not v.accepted
    assert v.breach_mm == pytest.approx(breach_depth(screw, pedicle), abs=1e-12)


# -- report -------------------------------------------------------------------------


def test_grade_report_percentages_sum():
    rows = [("L1-left", 0.0, "A"), ("L1-right", 1.5, "B"), ("L2-left", 0.0, "A"),
            ("L2-right", 2.5, "C")]
    csv = grade_report_csv(rows)
    lines = csv.strip().splitlines()
    idx = lines.index("grade,percent")
    pct = [float(l.split(",")[1]) for l in lines[idx + 1:]]
    assert sum(pct) == pytest.approx(100.0, abs=0.1)
    assert len(pct) == 5  # always exactly grade rows A-E


def test_grade_percent_counts_every_letter_once():
    assert grade_percent("AABCA") == {"A": 60.0, "B": 20.0, "C": 20.0,
                                      "D": 0.0, "E": 0.0}
    assert grade_percent([]) == dict.fromkeys("ABCDE", 0.0)
    with pytest.raises(KeyError):
        grade_percent("AF")  # not a Gertzbein-Robbins grade
    rows = [("L1-left", 0.0, "A"), ("L1-right", 7.0, "E"), ("L2-left", 0.0, "A")]
    lines = grade_report_csv(rows).splitlines()
    body = lines[lines.index("grade,percent") + 1:]
    assert body == [f"{g},{p!r}" for g, p in grade_percent("AEA").items()]
