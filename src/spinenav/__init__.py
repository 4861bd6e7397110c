"""spinenav: desk-scale navigation and robot-assistance toolkit for
image-guided spine surgery.

Subpackages by concern:
  geom          rigid transforms, frames, frame graph
  registration  point/surface registration and FLE/FRE/TRE statistics
  calibration   pivot calibration, C-arm projective calibration, detection,
                triangulation, automatic 2D patient registration
  kinematics    6-DOF arm FK/IK, screw-axis planning, collision checking
  planning      pedicle screw plans, breach depth, Gertzbein-Robbins grading
  workflow      guarded session state machine, radiation tally, module bus
  simharness    phantoms, noise models, Monte Carlo verification studies
  cli           batch command-line interface
"""

__version__ = "0.1.0"

from .geom import FrameGraph, RigidTransform, compose, invert, resolve
from .registration import (
    FiducialSet,
    RegistrationResult,
    SurfaceModel,
    icp_register,
    predict_tre,
    register_points,
    verify_registration,
)
from .calibration import (
    Detection2D,
    ProjectionModel,
    detect_fiducials,
    dlt_calibrate,
    pivot_calibrate,
    project,
    register_patient_2d,
    triangulate,
)
from .kinematics import (
    CollisionScene,
    JointVector,
    RobotModel,
    Trajectory,
    check_collision,
    default_robot,
    fk,
    ik,
    jacobian,
    plan_safe,
    plan_trajectory,
)
from .planning import (
    Grade,
    PedicleModel,
    ScrewPlan,
    breach_depth,
    grade_gertzbein,
    plan_deviation,
    validate_plan,
)
from .workflow import (
    Event,
    EventKind,
    Modality,
    Mode,
    ModuleRegistry,
    Phase,
    SessionState,
    advance,
    load_session,
    new_session,
    radiation_report,
    save_session,
)
from .simharness import (
    NoiseModel,
    Phantom,
    PhantomSpec,
    StudyConfig,
    calibrate_tracker_sigma0,
    generate_phantom,
    run_placement_study,
    run_study,
    run_trial,
    summarize,
)
