"""Checks sit at the public edge.

Every public constructor and entry point rejects NaN and inf in what a
caller passes; the values the code builds for itself without those checks
(camera frames, plant states) still satisfy the public constructors.
"""

import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazestab.chain import (
    DHLink,
    KinematicChain,
    Pose,
    analytic_axis_jacobian,
    forward_kinematics,
    geometric_jacobian,
)
from gazestab.errors import InvalidInput
from gazestab.models import default_head_model
from gazestab.simulator import (
    MAX_SCALE,
    CameraModel,
    CloudSpec,
    NoiseSegment,
    PlantState,
    SimSettings,
    flow_metric,
    make_cloud,
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
        lambda x: DHLink(a=-x),
        lambda x: DHLink(d=x),
        lambda x: KinematicChain(CHAIN.links, base_pose=Pose(np.eye(3), [0.0, -x, 0.0]), segments=CHAIN.segments),
        lambda x: replace(MODEL, imu_offset=Pose(np.eye(3), [0.0, 0.0, x])),
    ],
    ids=["focal-length", "cloud-radius", "gyro-noise", "link-a", "link-d", "base-position", "imu-offset"],
)
def test_scale_settings_capped(build):
    # the loop multiplies these into its floats: past the cap a product could overflow
    build(MAX_SCALE)
    with pytest.raises(InvalidInput, match="1e[+]100"):
        build(np.nextafter(MAX_SCALE, math.inf))


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
