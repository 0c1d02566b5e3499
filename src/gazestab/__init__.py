"""Torso-neck-eye kinematics and closed-loop gaze stabilization sandbox."""

from .chain import (
    DHLink,
    JointVector,
    KinematicChain,
    Pose,
    analytic_axis_jacobian,
    dh_matrix,
    finite_difference_jacobian,
    forward_kinematics,
    geometric_jacobian,
)
from .errors import (
    FileFormatError,
    GazestabError,
    InsufficientCoverage,
    InvalidComparison,
    InvalidInput,
    OracleFailure,
    SimulationDiverged,
    SingularConfiguration,
    SingularMatrix,
)
from .models import HeadModel, default_head_model
from .simulator import (
    CameraModel,
    CloudSpec,
    DisturbanceScript,
    NoiseSegment,
    PlantParams,
    PlantState,
    ScriptSegment,
    SimSettings,
    TrajectoryLog,
    flow_metric,
    initial_state,
    make_cloud,
    run_experiment,
    step,
    summarize,
    synth_gyro,
)
from .stabilizer import (
    ImuSample,
    StabilizerCommand,
    StabilizerConfig,
    Twist,
    compensate,
    estimate_ifb,
    estimate_kff,
    pinv_damped,
)
from .stereo import (
    CameraFrames,
    FixationResult,
    camera_frames,
    eye_jacobian,
    fixation_full_jacobian,
    fixation_point,
)

__version__ = "0.1.0"
