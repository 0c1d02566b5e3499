"""Checks sit at the public edge.

Every public constructor and entry point rejects NaN and inf in what a
caller passes; the values the code builds for itself without those checks
(camera frames, plant states) still satisfy the public constructors.
"""

import math
import re
import warnings
from dataclasses import fields, is_dataclass, replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazestab.chain import (
    DHLink,
    KinematicChain,
    Pose,
    analytic_axis_jacobian,
    dh_matrix,
    finite_difference_jacobian,
    forward_kinematics,
    geometric_jacobian,
)
from gazestab.errors import FileFormatError, InvalidInput, SimulationDiverged
from gazestab.fileio import parse_model_file, parse_run_config, write_log_csv
from gazestab.models import default_head_model
from gazestab.simulator import (
    MAX_SCALE,
    MAX_TICKS,
    CameraModel,
    CloudSpec,
    DisturbanceScript,
    NoiseSegment,
    PlantParams,
    PlantState,
    ScriptSegment,
    SimSettings,
    flow_metric,
    initial_state,
    make_cloud,
    run_experiment,
    step,
    synth_gyro,
)
from gazestab.stabilizer import (
    ImuSample,
    StabilizerCommand,
    StabilizerConfig,
    Twist,
    compensate,
    estimate_ifb,
    estimate_kff,
    pinv_damped,
)
from gazestab.stereo import CameraFrames, camera_frames, expand_head_q, fixation_full_jacobian

MODEL = default_head_model()
CHAIN = MODEL.chain
DT = 0.01
Q = np.array([0.1, -0.05, 0.02, 0.1, 0.03, -0.08, 0.02, 0.05, 0.011])
QM = expand_head_q(Q)
J = fixation_full_jacobian(CHAIN, Q)
FRAMES = camera_frames(CHAIN, Q)
STATE = PlantState(t=0.0, q=Q, qdot=np.zeros(9))
MOVED = PlantState(t=DT, q=Q + 0.01, qdot=np.zeros(9))
CMD = StabilizerCommand(np.full(3, 0.1), np.full(3, 0.2))
SCRIPT = DisturbanceScript(
    "mixed",
    segments=(ScriptSegment(0.0, 0.05, "torso-yaw", 0.4),),
    noise=(NoiseSegment(0.0, 0.1, ("neck-yaw",), 0.1, 2.0, 5),),
)
CLOUD = make_cloud(CloudSpec(), np.zeros(3))


def rebuilt(value):
    """value passed back through its own public constructor."""
    return type(value)(**{f.name: getattr(value, f.name) for f in fields(value)})


def with_bad(a, bad, index=1):
    a = np.array(a, dtype=float)
    a.flat[index] = bad
    return a


# (entry point, call with one bad value); each must raise InvalidInput.
ENTRY_POINTS = [
    ("CameraFrames.o_left", lambda b: replace(FRAMES, o_left=with_bad(FRAMES.o_left, b))),
    ("CameraFrames.rot_right", lambda b: replace(FRAMES, rot_right=with_bad(FRAMES.rot_right, b))),
    ("CloudSpec.azimuth", lambda b: CloudSpec(azimuth=b)),
    ("CloudSpec.elevation", lambda b: CloudSpec(elevation=b)),
    ("CameraModel.f", lambda b: CameraModel(f=b)),
    ("SimSettings.dt", lambda b: SimSettings(dt=b)),
    ("PlantState.t", lambda b: PlantState(t=b, q=Q, qdot=np.zeros(9))),
    ("PlantState.q", lambda b: PlantState(t=0.0, q=with_bad(Q, b), qdot=np.zeros(9))),
    ("PlantState.base_offset", lambda b: PlantState(0.0, Q, np.zeros(9), with_bad(np.zeros(3), b))),
    ("Twist", lambda b: Twist(with_bad(np.zeros(3), b), np.zeros(3))),
    ("ImuSample", lambda b: ImuSample(np.zeros(3), with_bad(np.zeros(3), b))),
    ("StabilizerCommand", lambda b: StabilizerCommand(np.zeros(3), with_bad(np.zeros(3), b))),
    ("flow_metric", lambda b: flow_metric(CameraModel(), FRAMES, FRAMES, with_bad(CLOUD, b))),
    ("make_cloud", lambda b: make_cloud(CloudSpec(), with_bad(np.zeros(3), b))),
    ("step.dt", lambda b: step(MODEL, STATE, np.zeros(9), None, b)),
    ("step.disturbance_qdot", lambda b: step(MODEL, STATE, with_bad(np.zeros(9), b), None, DT)),
    ("step.base_vel", lambda b: step(MODEL, STATE, np.zeros(9), None, DT, base_vel=with_bad(np.zeros(3), b))),
    ("synth_gyro.dt", lambda b: synth_gyro(MODEL, STATE, STATE, b)),
    ("synth_gyro.sigma", lambda b: synth_gyro(MODEL, STATE, STATE, DT, sigma=b, rng=np.random.default_rng(0))),
    ("estimate_kff", lambda b: estimate_kff(J, with_bad(np.zeros(9), b))),
    ("estimate_kff.J", lambda b: estimate_kff(with_bad(J, b, index=22), np.ones(9))),
    ("estimate_ifb", lambda b: estimate_ifb(ImuSample(np.zeros(3), np.zeros(3)), with_bad(np.ones(3), b))),
    ("compensate.J_eye", lambda b: compensate(Twist.zero(), with_bad(J, b, index=7), StabilizerConfig())),
    ("compensate.J_neck", lambda b: compensate(Twist.zero(), with_bad(J, b, index=22), StabilizerConfig())),
    ("pinv_damped.J", lambda b: pinv_damped(with_bad(J[:3, 6:], b), 1e-3)),
    ("pinv_damped.damping", lambda b: pinv_damped(J[:3, 6:], b)),
    ("realize.dt", lambda b: SCRIPT.realize(MODEL, b, 12)),
    ("initial_state.fixation_distance", lambda b: initial_state(MODEL, b)),
    ("dh_matrix.q", lambda b: dh_matrix(CHAIN.links[0], b)),
    ("camera_frames", lambda b: camera_frames(CHAIN, with_bad(Q, b))),
    ("fixation_full_jacobian", lambda b: fixation_full_jacobian(CHAIN, with_bad(Q, b))),
    ("geometric_jacobian.q", lambda b: geometric_jacobian(CHAIN, with_bad(QM, b), np.zeros(3), 7)),
    ("geometric_jacobian.point", lambda b: geometric_jacobian(CHAIN, QM, with_bad(np.zeros(3), b), 7)),
    ("analytic_axis_jacobian", lambda b: analytic_axis_jacobian(CHAIN, with_bad(QM, b), 9)),
    ("forward_kinematics", lambda b: forward_kinematics(CHAIN, with_bad(QM, b))),
]


# The message each of these rows must raise: the fault named where it enters.
MESSAGES = {name: "J must be finite" for name in ("estimate_kff.J", "compensate.J_eye", "compensate.J_neck")}
MESSAGES["flow_metric"] = "^cloud must be finite$"
MESSAGES["CameraModel.f"] = r"^focal length must be positive and at most 1e\+100, got -?(nan|inf)$"
MESSAGES.update(
    (row, f"^{rule}, got -?(nan|inf)$")
    for row, rule in (
        ("SimSettings.dt", "dt must be positive and finite"),
        ("step.dt", "dt must be positive and finite"),
        ("synth_gyro.dt", "dt must be positive and finite"),
        ("synth_gyro.sigma", "gyro noise sigma must be finite and >= 0"),
        ("pinv_damped.damping", "damping must be finite and >= 0"),
        ("realize.dt", "dt must be positive and finite"),
        ("initial_state.fixation_distance", "fixation_distance must be positive and finite"),
        ("dh_matrix.q", "q must be finite"),
    )
)
MESSAGES.update(
    (row, f"^{vector} must be a finite 3-vector$")
    for row, vector in (
        ("CameraFrames.o_left", "CameraFrames.o_left"),
        ("PlantState.base_offset", "base_offset"),
        ("Twist", "Twist.v"),
        ("ImuSample", "ImuSample.position"),
        ("StabilizerCommand", "StabilizerCommand.qdot_eye"),
        ("step.base_vel", "base_vel"),
        ("make_cloud", "center"),
        ("estimate_ifb", "x_fp"),
        ("geometric_jacobian.point", "point"),
    )
)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(("name", "call"), ENTRY_POINTS, ids=[n for n, _ in ENTRY_POINTS])
def test_public_entry_point_rejects_non_finite(name, call, bad):
    with pytest.raises(InvalidInput, match=MESSAGES.get(name)), np.errstate(all="ignore"):
        call(bad)


# Every scalar field stored through chain._real: (row, build, field, name in
# the message).  Each build accepts the values 0.01 to 2.
REAL_SETTINGS = [
    ("CameraModel.f", lambda x: CameraModel(f=x), "f", "focal length"),
    ("SimSettings.dt", lambda x: SimSettings(dt=x), "dt", "dt"),
    ("SimSettings.duration", lambda x: SimSettings(duration=x), "duration", "duration"),
    (
        "SimSettings.fixation_distance",
        lambda x: SimSettings(fixation_distance=x),
        "fixation_distance",
        "fixation_distance",
    ),
    ("SimSettings.gyro_sigma", lambda x: SimSettings(gyro_sigma=x), "gyro_sigma", "gyro_sigma"),
    ("StabilizerConfig.damping", lambda x: StabilizerConfig(damping=x), "damping", "damping"),
    (
        "StabilizerConfig.neck_rate_limit",
        lambda x: StabilizerConfig(neck_rate_limit=x),
        "neck_rate_limit",
        "neck_rate_limit",
    ),
    ("StabilizerConfig.eye_rate_limit", lambda x: StabilizerConfig(eye_rate_limit=x), "eye_rate_limit", "eye_rate_limit"),
    *(
        (f"PlantParams.{name}", lambda x, name=name: PlantParams(**{name: x}), name, f"PlantParams.{name}")
        for name in ("tau_neck", "tau_eye")
    ),
    ("PlantState.t", lambda x: PlantState(t=x, q=Q, qdot=np.zeros(9)), "t", "PlantState.t"),
    ("CloudSpec.r_min", lambda x: CloudSpec(r_min=x, r_max=6.3), "r_min", "cloud r_min"),
    ("CloudSpec.r_max", lambda x: CloudSpec(r_min=0.001, r_max=x), "r_max", "cloud r_max"),
    ("CloudSpec.azimuth", lambda x: CloudSpec(azimuth=x), "azimuth", "cloud azimuth"),
    ("CloudSpec.elevation", lambda x: CloudSpec(elevation=x), "elevation", "cloud elevation"),
    ("ScriptSegment.t_start", lambda x: ScriptSegment(x, 10.0, "torso-yaw", 0.1), "t_start", "segment t_start"),
    ("ScriptSegment.t_end", lambda x: ScriptSegment(0.0, x, "torso-yaw", 0.1), "t_end", "segment t_end"),
    ("ScriptSegment.rate", lambda x: ScriptSegment(0.0, 1.0, "torso-yaw", x), "rate", "segment rate"),
    ("NoiseSegment.t_start", lambda x: NoiseSegment(x, 10.0, ("torso-yaw",), 0.1, 1.0, 1), "t_start", "noise t_start"),
    ("NoiseSegment.t_end", lambda x: NoiseSegment(0.0, x, ("torso-yaw",), 0.1, 1.0, 1), "t_end", "noise t_end"),
    (
        "NoiseSegment.amplitude",
        lambda x: NoiseSegment(0.0, 1.0, ("torso-yaw",), x, 1.0, 1),
        "amplitude",
        "noise amplitude",
    ),
    (
        "NoiseSegment.bandwidth",
        lambda x: NoiseSegment(0.0, 1.0, ("torso-yaw",), 0.1, x, 1),
        "bandwidth",
        "noise bandwidth",
    ),
    *(
        (f"DHLink.{name}", lambda x, name=name: DHLink(**{name: x}), name, f"DHLink.{name}")
        for name in ("a", "d", "alpha", "theta_offset", "q_min", "q_max", "v_max")
    ),
]


@pytest.mark.parametrize("value", [True, np.True_, Decimal("0.5"), Fraction(1, 2), "0.5", 0.5 + 0j], ids=repr)
@pytest.mark.parametrize(("name", "build", "field", "what"), REAL_SETTINGS, ids=[r[0] for r in REAL_SETTINGS])
def test_real_settings_reject_other_types(name, build, field, what, value):
    # a bool would run as 1.0 and a Decimal would reach the loop's float math
    with pytest.raises(InvalidInput, match=f"^{what} must be a real number, got"):
        build(value)


@pytest.mark.parametrize(("name", "build", "field", "what"), REAL_SETTINGS, ids=[r[0] for r in REAL_SETTINGS])
def test_real_settings_store_python_floats(name, build, field, what):
    # a numpy float32 dt would otherwise run the clock in float32
    for value in (1, np.int64(1), np.float32(0.01), np.float64(0.02), 0.25):
        got = getattr(build(value), field)
        assert type(got) is float and got == float(value)


def outcome(call, x):
    """call(x)'s result as bytes (each field or array with its type and
    dtype), or the type and text of the InvalidInput or SimulationDiverged
    it raised."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            result = call(x)
        except (InvalidInput, SimulationDiverged) as err:
            return type(err).__name__, str(err)
    parts = [getattr(result, f.name) for f in fields(result)] if is_dataclass(result) else [result]
    return [(type(p).__name__, np.asarray(p).dtype.str, np.asarray(p).tobytes()) for p in parts]


# Every scalar argument of a public function, taken through chain._real or
# chain._int: (row, call, name in the message, the Python type it runs as).
# Each call accepts the values 0.01 to 2 (n_ticks: integers from 1).
SCALAR_ARGUMENTS = [
    ("step.dt", lambda x: step(MODEL, STATE, np.zeros(9), CMD, x), "dt", float),
    ("synth_gyro.dt", lambda x: synth_gyro(MODEL, STATE, MOVED, x), "dt", float),
    (
        "synth_gyro.sigma",
        lambda x: synth_gyro(MODEL, STATE, MOVED, DT, sigma=x, rng=np.random.default_rng(0)),
        "gyro noise sigma",
        float,
    ),
    ("pinv_damped.damping", lambda x: pinv_damped(J[:3, 6:], x), "damping", float),
    ("realize.dt", lambda x: SCRIPT.realize(MODEL, x, 12), "dt", float),
    ("realize.n_ticks", lambda x: SCRIPT.realize(MODEL, DT, x), "n_ticks", int),
    ("initial_state.fixation_distance", lambda x: initial_state(MODEL, x), "fixation_distance", float),
    ("dh_matrix.q", lambda x: dh_matrix(CHAIN.links[0], x), "q", float),
]


@pytest.mark.parametrize("value", [True, np.True_, Decimal("0.5"), Fraction(1, 2), "0.5", 0.5 + 0j], ids=repr)
@pytest.mark.parametrize(("name", "call", "what", "kind"), SCALAR_ARGUMENTS, ids=[r[0] for r in SCALAR_ARGUMENTS])
def test_scalar_arguments_reject_other_types(name, call, what, kind, value):
    # a bool would run as 1 (a 1 s tick, a 1 rad joint) and a Decimal would
    # reach numpy or float math as a bare TypeError
    with pytest.raises(InvalidInput, match=f"^{what} must"):
        call(value)


@pytest.mark.parametrize(("name", "call", "what", "kind"), SCALAR_ARGUMENTS, ids=[r[0] for r in SCALAR_ARGUMENTS])
def test_scalar_arguments_run_numpy_scalars_as_python_numbers(name, call, what, kind):
    # a numpy float32 dt would otherwise make step's t a float32
    values = (1, np.int64(1), np.float32(0.01), np.float64(0.02), 0.25) if kind is float else (3, np.int64(3), np.int32(3))
    for value in values:
        got = outcome(call, value)
        assert isinstance(got, list) and got == outcome(call, kind(value)), (name, value)


@pytest.mark.parametrize(
    ("name", "value"),
    [("realize.n_ticks", 0), ("realize.n_ticks", -1), ("realize.n_ticks", MAX_TICKS + 1), ("realize.dt", 0.0),
     ("initial_state.fixation_distance", -6.0), ("initial_state.fixation_distance", 0.0), ("step.dt", -0.01),
     ("synth_gyro.sigma", -1.0), ("synth_gyro.sigma", 1e308), ("pinv_damped.damping", -1e-3)],
)
def test_scalar_arguments_out_of_range_rejected_by_name(name, value):
    # n_ticks sizes two (n_ticks, 12) tables and an (n_ticks, 9) mask; a
    # fixation distance of 0 verges to pi, and a negative one past it; a
    # sigma past MAX_SCALE draws noise that can overflow the sample
    _, call, what, _ = next(row for row in SCALAR_ARGUMENTS if row[0] == name)
    with pytest.raises(InvalidInput, match=f"^{what} must .*, got {re.escape(repr(value))}$"):
        call(value)


def test_an_int_past_the_float_range_is_an_infinity():
    # float() of such an int raises OverflowError; the int rounds to +-inf, as IEEE rounding does
    assert DHLink(q_min=-(10**400), q_max=10**400) == DHLink()
    with pytest.raises(InvalidInput, match=r"^focal length must be positive and at most 1e\+100, got 1000"):
        CameraModel(f=10**400)


def test_numpy_real_settings_log_as_python_floats(tmp_path):
    # the writer prints a float as %.17g (6.0 -> "6"); a float32 would print through str() as "6.0"
    settings = SimSettings(control=StabilizerConfig(mode="off"), duration=0.02, fixation_distance=np.float32(6))
    path = tmp_path / "run.csv"
    write_log_csv(run_experiment(MODEL, DisturbanceScript("still"), settings), str(path))
    assert "# fixation_distance: 6\n" in path.read_text(encoding="utf-8").splitlines(keepends=True)


def test_float32_gyro_sigma_is_range_checked_without_a_cast_warning():
    # comparing a float32 with MAX_SCALE would cast 1e100 to float32 and overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigma = SimSettings(gyro_sigma=np.float32(0.005)).gyro_sigma
    assert type(sigma) is float and sigma == float(np.float32(0.005))


# Each seed feeds a numpy generator, which takes only non-negative integers.
SEEDED = [
    ("SimSettings", lambda seed: SimSettings(seed=seed)),
    ("CloudSpec", lambda seed: CloudSpec(seed=seed)),
    ("NoiseSegment", lambda seed: NoiseSegment(0.0, 1.0, ("torso-yaw",), 0.1, 1.0, seed)),
]


@pytest.mark.parametrize("seed", [-1, -(2**40), 1.5, 3.0, True, "7"], ids=repr)
@pytest.mark.parametrize(("name", "build"), SEEDED, ids=[n for n, _ in SEEDED])
def test_seed_must_be_a_non_negative_integer(name, build, seed):
    with pytest.raises(InvalidInput, match="must be a non-negative integer"):
        build(seed)


@pytest.mark.parametrize(("name", "build"), SEEDED, ids=[n for n, _ in SEEDED])
def test_seed_accepts_zero_and_numpy_integers(name, build):
    for seed in (0, np.int64(2**40)):
        assert build(seed).seed == seed


# Every integer field stored through chain._int: (row, build, field, name in
# the message, a value the build accepts).
INT_SETTINGS = [
    ("SimSettings.seed", lambda x: SimSettings(seed=x), "seed", "seed", 7),
    ("SimSettings.gyro_delay_ticks", lambda x: SimSettings(gyro_delay_ticks=x), "gyro_delay_ticks", "gyro delay", 3),
    ("CloudSpec.n", lambda x: CloudSpec(n=x), "n", "cloud", 600),
    ("CloudSpec.seed", lambda x: CloudSpec(seed=x), "seed", "cloud seed", 7),
    ("NoiseSegment.seed", lambda x: NoiseSegment(0.0, 1.0, ("torso-yaw",), 0.1, 1.0, x), "seed", "noise seed", 7),
    *(
        (f"CameraModel.{name}", lambda x, name=name: CameraModel(**{name: x}), name, "image width, height and border", v)
        for name, v in (("width", 320), ("height", 240), ("border", 20))
    ),
    ("HeadModel.imu_link", lambda x: replace(MODEL, imu_link=x), "imu_link", "imu_link", MODEL.imu_link),
]


@pytest.mark.parametrize(("name", "build", "field", "what", "valid"), INT_SETTINGS, ids=[r[0] for r in INT_SETTINGS])
def test_int_settings_store_python_ints(name, build, field, what, valid):
    for value in (valid, np.int64(valid), np.int32(valid)):
        got = getattr(build(value), field)
        assert type(got) is int and got == valid


@pytest.mark.parametrize("kind", [bool, float, str])
@pytest.mark.parametrize(("name", "build", "field", "what", "valid"), INT_SETTINGS, ids=[r[0] for r in INT_SETTINGS])
def test_int_settings_reject_other_types(name, build, field, what, valid, kind):
    # a bool would run as 0 or 1, and numpy takes no float or str count or seed
    with pytest.raises(InvalidInput, match=f"^{what} must"):
        build(kind(valid))


# Python and numpy scalars of every kind a caller might pass.
SCALARS = st.one_of(
    st.booleans(),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.decimals(allow_nan=False),
    st.fractions(),
    st.text(max_size=4),
    st.complex_numbers(max_magnitude=1e6),
)


# Each row with the type it stores.  HeadModel.imu_link is left out: its
# neck-link rule names the IMU, not the field.
SCALAR_ROWS = [(*row, float) for row in REAL_SETTINGS] + [
    (*row[:4], int) for row in INT_SETTINGS if row[0] != "HeadModel.imu_link"
]


@settings(max_examples=300, deadline=None)
@given(row=st.sampled_from(SCALAR_ROWS), value=SCALARS)
def test_scalar_fields_are_rejected_by_name_or_stored_as_python_numbers(row, value):
    # whatever a caller passes is either an InvalidInput naming the field (by
    # its own rule or one it shares with another field) or a Python float or
    # int: never a bare TypeError, and never a bool, Decimal or numpy scalar
    name, build, field, what, stored = row
    try:
        got = getattr(build(value), field)
    except InvalidInput as err:
        assert what in str(err) or field in str(err), (name, str(err))
    else:
        assert type(got) is stored, (name, value, got)


@settings(max_examples=300, deadline=None)
@given(row=st.sampled_from(SCALAR_ARGUMENTS), value=SCALARS)
def test_scalar_arguments_are_rejected_by_name_or_run_as_python_numbers(row, value):
    # whatever a caller passes is either an InvalidInput naming the argument
    # or runs as its Python float or int would: never a bare TypeError, and
    # never a bool, Decimal or numpy scalar reaching the arithmetic
    name, call, what, kind = row
    got = outcome(call, value)
    if got[0] == "InvalidInput" and got[1].startswith(f"{what} must"):
        return
    assert not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating)), (name, value)
    assert got == outcome(call, kind(value)), (name, value, got)


@pytest.mark.parametrize(
    ("field", "value"),
    [("azimuth", -5.0), ("azimuth", -1e-12), ("azimuth", math.pi + 1e-12), ("azimuth", 720.0),
     ("elevation", -1.0), ("elevation", math.pi / 2 + 1e-12), ("elevation", 4 * math.pi)],
)
def test_cloud_angles_out_of_range_rejected(field, value):
    # make_cloud samples [-angle, angle]: past pi (pi/2) the shell overlaps itself
    with pytest.raises(InvalidInput, match=f"cloud {field} must lie in"):
        CloudSpec(**{field: value})


def test_cloud_angles_accept_their_bounds():
    for azimuth, elevation in ((0.0, 0.0), (math.pi, math.pi / 2)):
        assert CloudSpec(azimuth=azimuth, elevation=elevation).azimuth == azimuth


@pytest.mark.parametrize("field", ["azimuth", "elevation"])
def test_cloud_negative_zero_angle_samples_as_zero(field):
    # make_cloud samples [-angle, angle]; numpy rejects the range [0, -0]
    a, b = (make_cloud(CloudSpec(**{field: zero}), np.zeros(3)) for zero in (-0.0, 0.0))
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "build",
    [
        lambda x: CameraModel(f=x),
        lambda x: CloudSpec(r_max=x),
        lambda x: SimSettings(gyro_sigma=x),
        lambda x: synth_gyro(MODEL, STATE, MOVED, DT, sigma=x, rng=np.random.default_rng(0)),
        lambda x: DHLink(a=-x),
        lambda x: DHLink(d=x),
        lambda x: KinematicChain(CHAIN.links, base_pose=Pose(np.eye(3), [0.0, -x, 0.0]), segments=CHAIN.segments),
        lambda x: replace(MODEL, imu_offset=Pose(np.eye(3), [0.0, 0.0, x])),
    ],
    ids=[
        "focal-length", "cloud-radius", "gyro-noise", "gyro-noise-argument", "link-a", "link-d", "base-position",
        "imu-offset",
    ],
)
def test_scale_settings_capped(build):
    # the loop multiplies these into its floats: past the cap a product could overflow
    build(MAX_SCALE)
    with pytest.raises(InvalidInput, match="1e[+]100"):
        build(np.nextafter(MAX_SCALE, math.inf))


def parsed(parse, text):
    """parse's result for a file holding text, beside the other test files."""

    def call(tmp):
        path = tmp / "input.txt"
        path.write_text(text)
        return parse(str(path))

    return call


HEAD = "model x\nunits degrees\nsegment torso\n"
# Each structural rejection: (row, call in a scratch directory, error type, message fragment).
REJECTIONS = [
    ("Pose.shape", lambda tmp: Pose(np.eye(2), np.zeros(3)), InvalidInput, "Pose wants a (3,3) rotation"),
    ("Pose.from_matrix", lambda tmp: Pose.from_matrix(np.eye(3)), InvalidInput, "must be 4x4, got (3, 3)"),
    ("KinematicChain.no-links", lambda tmp: KinematicChain(()), InvalidInput, "needs at least one link"),
    (
        "KinematicChain.segments",
        lambda tmp: KinematicChain((DHLink(),), segments=("torso", "neck")),
        InvalidInput,
        "segments must match links one-to-one",
    ),
    ("KinematicChain.tag", lambda tmp: KinematicChain((DHLink(),), segments=("arm",)), InvalidInput, "tag 'arm'"),
    (
        "KinematicChain.eye-contiguous",
        lambda tmp: KinematicChain((DHLink(),) * 3, segments=("left-eye", "right-eye", "left-eye")),
        InvalidInput,
        "left-eye links must be contiguous",
    ),
    (
        "finite_difference_jacobian.f",
        lambda tmp: finite_difference_jacobian(lambda q: np.zeros((2, 2)), np.zeros(3)),
        InvalidInput,
        "f must return a 1-D vector",
    ),
    ("CameraFrames.rot-shape", lambda tmp: replace(FRAMES, rot_left=np.eye(2)), InvalidInput, "rot_left must be 3x3"),
    (
        "CameraFrames.rot-z",
        lambda tmp: replace(FRAMES, rot_left=FRAMES.rot_left[:, [1, 2, 0]]),
        InvalidInput,
        "rot_left third column must equal z_left",
    ),
    (
        "step.active",
        lambda tmp: step(MODEL, STATE, np.zeros(9), None, DT, active=np.ones(8, dtype=bool)),
        InvalidInput,
        "active mask must have 9 entries",
    ),
    (
        "flow_metric.cloud",
        lambda tmp: flow_metric(CameraModel(), FRAMES, FRAMES, np.zeros((20, 2))),
        InvalidInput,
        "cloud must be an (n, 3) array",
    ),
    ("HeadModel.trunk_names", lambda tmp: replace(MODEL, trunk_names=("j",) * 6), InvalidInput, "six distinct"),
    ("imu_pose.q", lambda tmp: MODEL.imu_pose(np.zeros(2)), InvalidInput, "q must cover links 0.."),
    ("Twist.from_array", lambda tmp: Twist.from_array(np.zeros(5)), InvalidInput, "must have 6 entries"),
    ("model.link-name", parsed(parse_model_file, HEAD + "link\n"), FileFormatError, ":4: link line needs a name"),
    (
        "model.imu-link",
        parsed(parse_model_file, HEAD + "link j a=0\nimu offset=0,0,0\n"),
        FileFormatError,
        ":5: imu line needs link=<name>",
    ),
    ("model.no-imu", parsed(parse_model_file, HEAD + "link j a=0\n"), FileFormatError, ":4: missing imu line"),
    (
        "config.cloud-radius",
        parsed(parse_run_config, "config c\nmodel m\nscript s\ncloud-radius 3\n"),
        FileFormatError,
        ":4: cloud-radius takes two values: min max",
    ),
]


@pytest.mark.parametrize(("name", "call", "error", "fragment"), REJECTIONS, ids=[r[0] for r in REJECTIONS])
def test_structural_rejections(tmp_path, name, call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)) as exc:
        call(tmp_path)
    assert exc.type is error


@pytest.mark.parametrize("value", [False, True])
def test_config_sequential_takes_true_or_false(tmp_path, value):
    cfg = parsed(parse_run_config, f"config c\nmodel m\nscript s\nsequential {str(value).lower()}\n")(tmp_path)
    assert cfg.settings.control.sequential is value


def with_link(index, **limits):
    """MODEL with one link's limits replaced."""
    links = list(MODEL.chain.links)
    links[index] = replace(links[index], **limits)
    return replace(MODEL, chain=KinematicChain(tuple(links), segments=MODEL.chain.segments))


@pytest.mark.parametrize("limit", ["q_min", "q_max", "v_max"])
def test_head_model_rejects_unequal_tilt_limits(limit):
    # the two tilt joints are one axis: the plant would clamp them apart
    half = getattr(MODEL.chain.links[8], limit) / 2
    with pytest.raises(InvalidInput, match=f"left tilt {limit} .* differs from the right's {half!r}"):
        with_link(8, **{limit: half})
    assert with_link(9, **{limit: getattr(MODEL.chain.links[9], limit) / 2})  # pan limits may differ


@pytest.mark.parametrize(
    "offset",
    [Pose(np.eye(3), [0.0, math.nan, 0.0]), Pose(np.diag([1.0, 1.0, math.inf]), np.zeros(3))],
    ids=["nan-position", "inf-rotation"],
)
def test_head_model_rejects_non_finite_imu_offset(offset):
    with pytest.raises(InvalidInput, match="imu_offset must be finite"):
        replace(MODEL, imu_offset=offset)


@pytest.mark.parametrize(
    "rot",
    [2.0 * np.eye(3), np.array([[1.0, 1e-6, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])],
    ids=["scaled", "sheared"],
)
def test_head_model_rejects_non_rigid_imu_offset(rot):
    # the loop forms gyro samples unchecked from this rotation
    with pytest.raises(InvalidInput, match="orthonormal rotation"):
        replace(MODEL, imu_offset=Pose(rot, np.zeros(3)))


def test_head_model_accepts_a_rotated_imu_mount():
    c, s = math.cos(0.3), math.sin(0.3)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(replace(MODEL, imu_offset=Pose(rot, np.zeros(3))).imu_offset.rot, rot)


def assert_frames_valid(fr):
    for side in ("left", "right"):
        rot, z = getattr(fr, f"rot_{side}"), getattr(fr, f"z_{side}")
        assert np.abs(rot.T @ rot - np.eye(3)).max() <= 1e-9
        assert np.abs(rot[:, 2] - z).max() <= 1e-9
        assert np.isfinite(getattr(fr, f"o_{side}")).all() and np.isfinite(rot).all()
    again = rebuilt(fr)
    for f in fields(fr):
        assert np.array_equal(getattr(again, f.name), getattr(fr, f.name))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_built_frames_and_states_pass_the_public_constructors(seed):
    # camera_frames and step build their results unchecked; over random
    # postures and plant steps (joint-limit clamps included) each result is
    # one the public constructor accepts unchanged.
    rng = np.random.default_rng(seed)
    state = PlantState(
        t=float(rng.uniform(0.0, 20.0)),
        q=rng.uniform(-0.9, 0.9, 9),
        qdot=rng.uniform(-1.0, 1.0, 9),
        base_offset=rng.uniform(-1.0, 1.0, 3),
    )
    assert_frames_valid(camera_frames(CHAIN, state.q))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(5):
            cmd = StabilizerCommand(rng.uniform(-2.0, 2.0, 3), rng.uniform(-4.0, 4.0, 3))
            state = step(
                MODEL,
                state,
                rng.uniform(-3.0, 3.0, 9),
                cmd,
                float(rng.uniform(0.001, 0.1)),
                active=rng.random(9) < 0.5,
                base_vel=rng.uniform(-1.0, 1.0, 3),
            )
            again = rebuilt(state)
            assert again.t == state.t
            for name in ("q", "qdot", "base_offset"):
                assert np.array_equal(getattr(again, name), getattr(state, name))
            assert_frames_valid(camera_frames(CHAIN, state.q))
