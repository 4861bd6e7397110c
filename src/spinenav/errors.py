"""Exception hierarchy shared across the toolkit.

Every operational failure raises a subclass of SpineNavError so callers can
catch toolkit errors without masking programming mistakes (TypeError etc.).
Each class carries its CLI exit code: 3 for a NumericalFailure, 2 for any
other SpineNavError. Any other exception is a bug (exit 1, with a traceback).
"""


class SpineNavError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2


class NumericalFailure(SpineNavError):
    """The input is well formed, but the computation cannot succeed on it."""

    exit_code = 3


class BadInput(SpineNavError, ValueError):
    """A value or document failed validation (a ValueError too, for callers
    that catch ValueError)."""


def raised_where(mask, error_type: type, message: str) -> dict:
    """The failures of one check of a stacked computation: {stack row:
    error_type(message)}, a fresh error for each true row of the boolean
    mask (T,). Empty when no row fails, so `if failed: raise failed[0]`
    is the one-stack case."""
    return {int(i): error_type(message) for i in mask.nonzero()[0]}


# -- frames / transforms ----------------------------------------------------

class NoPath(SpineNavError):
    """Two frames are not connected in the frame graph."""


class CycleDetected(SpineNavError):
    """An edge would close a cycle; frame graphs must stay a forest."""


# -- registration -----------------------------------------------------------

class TooFewPoints(SpineNavError):
    """Fewer correspondences than the algorithm can use."""


class DegenerateGeometry(NumericalFailure):
    """Point/surface geometry leaves the solution under-determined."""


class LabelMismatch(SpineNavError):
    """Paired fiducial sets do not share the same label set."""


# -- calibration ------------------------------------------------------------

class TooFewPoses(SpineNavError):
    """Not enough tracked poses for pivot calibration."""


class InsufficientRotation(NumericalFailure):
    """Pivot poses lack rotational diversity; system is rank deficient."""


class CoplanarPoints(NumericalFailure):
    """Projective calibration points all lie on one plane."""


class PointAtInfinity(NumericalFailure):
    """Point projects onto the camera plane (homogeneous w ~ 0)."""


class TooFewBlobs(SpineNavError):
    """Raster contains too few blobs to attempt pattern matching."""


class PatternAmbiguous(NumericalFailure):
    """More than one label assignment fits the detected blobs."""


class ParallelRays(NumericalFailure):
    """Back-projected rays are too close to parallel to triangulate."""


class TooFewCommonLabels(SpineNavError):
    """Not enough fiducials detected and labeled in both views."""


# -- kinematics -------------------------------------------------------------

class Unreachable(NumericalFailure):
    """Inverse kinematics found no solution from any restart."""


class LimitViolation(NumericalFailure):
    """A solution exists but only outside the joint limits."""


class NoSafePath(NumericalFailure):
    """Every candidate approach orientation collides."""


# -- planning ---------------------------------------------------------------

class NegativeBreach(SpineNavError):
    """Breach depth must be non-negative."""


class LevelMismatch(SpineNavError):
    """Plans being compared refer to different vertebral levels."""


# -- workflow ---------------------------------------------------------------

class IllegalTransition(SpineNavError):
    """Event is not legal in the current workflow phase."""

    def __init__(self, phase, event_kind):
        super().__init__(f"event {event_kind} is illegal in phase {phase}")
        self.phase = phase
        self.event_kind = event_kind


class GuardFailed(SpineNavError):
    """A transition guard rejected the event."""


class DuplicateName(SpineNavError):
    """Module name already registered on the bus."""


class LayerViolation(SpineNavError):
    """Module's layer may not publish on this topic."""


class SchemaVersionMismatch(SpineNavError):
    """Persisted session was written with an unknown schema version."""


# -- simulation harness / I/O -----------------------------------------------

class DegenerateSpec(NumericalFailure):
    """Phantom parameters cannot produce a usable phantom."""


class IOFailure(SpineNavError):
    """File could not be read or written."""
