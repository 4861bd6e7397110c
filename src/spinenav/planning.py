"""Pedicle screw planning geometry and outcome grading.

The pedicle is modeled as a tapered circular corridor around a centerline
segment; the screw as a cylinder. Breach depth is how far the screw surface
protrudes radially beyond the local corridor wall, and the A-E grade follows
the conventional 2 mm bins with boundary values assigned to the worse bin.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BadInput, LevelMismatch, NegativeBreach
from .geom import ArrayValue, booleans, finite_scalars, frozen_array

GRADE_ORDER = "ABCDE"


@dataclass(frozen=True, eq=False)
class ScrewPlan(ArrayValue):
    """Planned (or achieved) screw axis in the patient frame."""

    level: str
    entry: np.ndarray
    direction: np.ndarray
    diameter: float
    length: float

    def __post_init__(self):
        frozen_array(self, "entry", self.entry, 3)
        d = frozen_array(self, "direction", self.direction, 3)
        if abs(np.linalg.norm(d) - 1.0) > 1e-9:
            raise BadInput("screw direction must be a unit vector")
        if not 2.0 <= self.diameter <= 10.0:
            raise BadInput("screw diameter out of range [2, 10] mm")
        if not 20.0 <= self.length <= 100.0:
            raise BadInput("screw length out of range [20, 100] mm")

    def tip(self) -> np.ndarray:
        return self.entry + self.length * self.direction

    def to_dict(self) -> dict:
        return {"level": self.level, "entry_mm": self.entry.tolist(),
                "direction": self.direction.tolist(),
                "diameter_mm": self.diameter, "length_mm": self.length}

    @staticmethod
    def from_dict(d: dict) -> "ScrewPlan":
        return ScrewPlan(d["level"], d["entry_mm"], d["direction"],
                         float(d["diameter_mm"]), float(d["length_mm"]))


@dataclass(frozen=True, eq=False)
class PedicleModel(ArrayValue):
    """Corridor centerline p0->p1 with a piecewise-linear radius profile
    over normalized arc position s in [0, 1]."""

    level: str
    p0: np.ndarray
    p1: np.ndarray
    radius_profile: tuple  # of (s, radius_mm), s strictly increasing 0 -> 1

    def __post_init__(self):
        p0 = frozen_array(self, "p0", self.p0, 3)
        axis = frozen_array(self, "p1", self.p1, 3) - p0
        if not axis @ axis > 0.0:  # _max_depth divides by it
            raise BadInput("pedicle axis must have positive length")
        prof = tuple((float(s), float(r)) for s, r in self.radius_profile)
        if not np.all(np.isfinite(prof)):
            raise BadInput("radius profile knots must be finite")
        svals = [s for s, _ in prof]
        if svals[0] != 0.0 or svals[-1] != 1.0 or np.any(np.diff(svals) <= 0):
            raise BadInput("radius profile s must increase strictly from 0 to 1")
        if not all(r > 0.0 for _, r in prof):
            raise BadInput("corridor radii must be positive")
        object.__setattr__(self, "radius_profile", prof)

    def radius_at(self, s):
        """Linear interpolation of the corridor radius at s (clamped)."""
        svals, rvals = zip(*self.radius_profile)
        return np.interp(np.clip(s, 0.0, 1.0), svals, rvals)

    def axis_length(self) -> float:
        return float(np.linalg.norm(self.p1 - self.p0))

    def to_dict(self) -> dict:
        return {"level": self.level, "axis_mm": [self.p0.tolist(), self.p1.tolist()],
                "radius_profile": [[s, r] for s, r in self.radius_profile]}

    @staticmethod
    def from_dict(d: dict) -> "PedicleModel":
        return PedicleModel(d["level"], d["axis_mm"][0], d["axis_mm"][1], d["radius_profile"])


@dataclass(frozen=True)
class Grade:
    """Gertzbein-Robbins outcome: letter fixed by breach depth alone."""

    value: str
    breach_mm: float

    def __post_init__(self):
        if self.value not in GRADE_ORDER:
            raise BadInput("grade must be one of A-E")
        finite_scalars(self, "breach_mm")

    def rank(self) -> int:
        return GRADE_ORDER.index(self.value)


@dataclass(frozen=True)
class PlanValidation:
    """A plan checked against its pedicle; accepted must be a bool."""

    accepted: bool
    breach_mm: float
    min_clearance_mm: float

    def __post_init__(self):
        booleans(self, "accepted")
        finite_scalars(self, "breach_mm", "min_clearance_mm")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "PlanValidation":
        return PlanValidation(d["accepted"], d["breach_mm"], d["min_clearance_mm"])


@dataclass(frozen=True)
class PlanDeviation:
    entry_offset_mm: float
    angle_deg: float
    tip_offset_mm: float

    def __post_init__(self):
        finite_scalars(self, "entry_offset_mm", "angle_deg", "tip_offset_mm")


def _max_depth(screw: ScrewPlan, pedicle: PedicleModel) -> tuple:
    """(depth, enters): the signed maximum of rho + r_screw -
    corridor_radius(s) over the in-pedicle part of the shaft (negative:
    minus the smallest clearance), and whether the shaft enters [0, 1].

    On each profile piece rho (the norm of an affine function) is convex and
    the radius affine, so the depth peaks at a shaft end or a knot crossing
    (s = 0 and 1 included), graded at the knot's own s so rounding cannot
    drop it. A shaft wholly outside [0, 1] is graded at its end(s) closest
    to the corridor, against the radius at the clamped s.
    """
    axis = pedicle.p1 - pedicle.p0
    ends = screw.entry + np.array([[0.0], [screw.length]]) * screw.direction
    s_ends = (ends - pedicle.p0) @ axis / float(axis @ axis)
    knots = np.array([k for k, _ in pedicle.radius_profile])
    knots = knots[(knots > s_ends.min()) & (knots < s_ends.max())]
    t = (knots - s_ends[0]) / (s_ends[1] - s_ends[0])
    pts = np.vstack([ends, screw.entry + (t * screw.length)[:, None] * screw.direction])
    s = np.concatenate([s_ends, knots])
    inside = (s >= 0.0) & (s <= 1.0)
    enters = bool(np.any(inside))
    if not enters:
        gap = np.abs(np.clip(s_ends, 0.0, 1.0) - s_ends)
        inside[:2] = gap == gap.min()
    rho = np.linalg.norm(pts[inside] - (pedicle.p0 + s[inside, None] * axis), axis=1)
    depth = np.max(rho + screw.diameter / 2.0 - pedicle.radius_at(s[inside]))
    return float(depth), enters


def breach_depth(screw: ScrewPlan, pedicle: PedicleModel) -> float:
    """Deepest radial protrusion of the screw surface beyond the corridor
    wall, over the in-pedicle portion of the shaft (mm, 0 when contained).

    The screw surface sits diameter/2 outside its centerline, so this is the
    exact maximum of max(0, rho + r_screw - corridor_radius(s)) over shaft
    points whose axis projection s lies in [0, 1]; if the whole shaft misses
    the corridor longitudinally, the clearance at the closest approach
    (clamped s) is reported.
    """
    return max(0.0, _max_depth(screw, pedicle)[0])


def grade_gertzbein(breach_mm: float) -> Grade:
    """A: no breach; B: <2; C: <4; D: <6; E: >=6 (boundaries go to the worse
    bin, e.g. exactly 2.0 mm grades C). Raises NegativeBreach."""
    if not breach_mm >= 0.0:  # NaN fails too
        raise NegativeBreach("breach depth must be a non-negative number")
    if breach_mm == 0.0:
        value = "A"
    elif breach_mm < 2.0:
        value = "B"
    elif breach_mm < 4.0:
        value = "C"
    elif breach_mm < 6.0:
        value = "D"
    else:
        value = "E"
    return Grade(value, float(breach_mm))


def plan_deviation(plan: ScrewPlan, achieved: ScrewPlan) -> PlanDeviation:
    """Entry offset, axis angle, and tip offset between plan and outcome."""
    if plan.level != achieved.level:
        raise LevelMismatch(f"{plan.level} vs {achieved.level}")
    entry_off = float(np.linalg.norm(plan.entry - achieved.entry))
    cosang = float(np.clip(np.dot(plan.direction, achieved.direction), -1.0, 1.0))
    angle = float(np.degrees(np.arccos(cosang)))
    tip_off = float(np.linalg.norm(plan.tip() - achieved.tip()))
    return PlanDeviation(entry_off, angle, tip_off)


def validate_plan(plan: ScrewPlan, pedicle: PedicleModel,
                  safety_margin_mm: float = 0.5) -> PlanValidation:
    """Accept iff the screw enters the pedicle, is fully contained and clears
    the corridor wall by at least the safety margin everywhere inside it."""
    depth, enters = _max_depth(plan, pedicle)
    breach = max(0.0, depth)
    min_clear = 0.0 - depth  # +0.0, not -0.0, at zero clearance
    accepted = enters and breach == 0.0 and min_clear >= safety_margin_mm
    return PlanValidation(accepted, breach, min_clear)


# -- report files -------------------------------------------------------------


def grade_percent(letters) -> dict:
    """Percentage of each grade A-E among the letters (all 0.0 when there
    are none)."""
    counts = {g: 0 for g in GRADE_ORDER}
    for g in letters:
        counts[g] += 1
    total = max(sum(counts.values()), 1)
    return {g: 100.0 * n / total for g, n in counts.items()}


def grade_report_csv(rows) -> str:
    """CSV of (level, breach_mm, grade) rows plus per-grade percentages."""
    lines = ["level,breach_mm,grade"]
    rows = list(rows)
    for level, breach, grade in rows:
        lines.append(f"{level},{repr(float(breach))},{grade}")
    lines.append("grade,percent")
    for g, percent in grade_percent(grade for _, _, grade in rows).items():
        lines.append(f"{g},{repr(percent)}")
    return "\n".join(lines) + "\n"


def plans_from_json(text: str) -> list:
    return [ScrewPlan.from_dict(d) for d in json.loads(text)]


def pedicles_from_json(text: str) -> dict:
    return {d["level"]: PedicleModel.from_dict(d) for d in json.loads(text)}
