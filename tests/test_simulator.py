import importlib
import json
import math
import os
import subprocess
import sys
import warnings
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazestab.chain import KinematicChain, Pose
from gazestab.errors import (
    InsufficientCoverage,
    InvalidComparison,
    InvalidInput,
    JointLimitWarning,
    SimulationDiverged,
)
from gazestab.fileio import (
    default_data_dir,
    parse_model_file,
    parse_run_config,
    parse_script_file,
    read_log_csv,
    write_log_csv,
)
from gazestab.models import HeadModel, default_head_model
import gazestab.simulator as simulator
from gazestab.simulator import (
    MAX_SCALE,
    MAX_TICKS,
    _so3_log,
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
    summarize,
    synth_gyro,
)
from gazestab.stabilizer import ImuSample, StabilizerCommand, StabilizerConfig, Twist, compensate, estimate_ifb
from gazestab.stereo import (
    TILT_TOL,
    CameraFrames,
    camera_frames,
    expand_head_q,
    fixation_full_jacobian,
    fixation_point,
)

MODEL = default_head_model()
DT = 0.01


def make_cmd(neck=(0.0, 0.0, 0.0), eye=(0.0, 0.0, 0.0)):
    return StabilizerCommand(qdot_neck=np.array(neck, float), qdot_eye=np.array(eye, float))


def rest_state():
    return PlantState(t=0.0, q=np.zeros(9), qdot=np.zeros(9))


# ----------------------------------------------------------------- plant


def test_ideal_plant_snaps_to_setpoint():
    cmd = make_cmd(neck=(0.1, -0.2, 0.3), eye=(0.05, 0.1, -0.1))
    s1 = step(MODEL, rest_state(), np.zeros(9), cmd, DT, PlantParams(0.0, 0.0))
    assert np.allclose(s1.qdot[3:6], [0.1, -0.2, 0.3])
    assert np.allclose(s1.qdot[6:9], [0.05, 0.1, -0.1])
    assert np.allclose(s1.q, DT * s1.qdot)


def test_lag_step_response_reaches_95_percent():
    # dt/tau = 0.125 for the neck: 1 - 0.875**24 ~ 0.96 after 24 ticks
    cmd = make_cmd(neck=(0.0, 0.0, 1.0))
    state = rest_state()
    for _ in range(24):
        state = step(MODEL, state, np.zeros(9), cmd, DT, PlantParams())
    expected = 1.0 - (1.0 - DT / 0.08) ** 24
    assert state.qdot[5] == pytest.approx(expected, rel=1e-12)
    assert state.qdot[5] >= 0.95


def test_eye_lag_faster_than_neck():
    cmd = make_cmd(neck=(0.0, 0.0, 1.0), eye=(0.0, 1.0, 0.0))
    s1 = step(MODEL, rest_state(), np.zeros(9), cmd, DT, PlantParams())
    assert s1.qdot[7] > s1.qdot[5]


def test_scripted_joint_follows_exactly_ignoring_command():
    dist = np.zeros(9)
    dist[0] = 0.3
    active = np.zeros(9, bool)
    active[0] = True
    state = rest_state()
    for _ in range(10):
        state = step(MODEL, state, dist, make_cmd(neck=(9.9, 9.9, 9.9)), DT, PlantParams(), active=active)
    assert state.q[0] == pytest.approx(10 * DT * 0.3, abs=1e-15)
    assert state.qdot[0] == 0.3


def test_unscripted_torso_rests():
    s1 = step(MODEL, rest_state(), np.zeros(9), make_cmd(neck=(1.0, 1.0, 1.0)), DT, PlantParams())
    assert np.all(s1.q[:3] == 0.0) and np.all(s1.qdot[:3] == 0.0)


def test_velocity_clamped_to_link_limit():
    # ideal plant would snap to 5.0, above the neck link's rate limit
    limit = MODEL.chain.links[3].v_max
    cmd = make_cmd(neck=(5.0, 0.0, 0.0))
    s1 = step(MODEL, rest_state(), np.zeros(9), cmd, DT, PlantParams(0.0, 0.0))
    assert 5.0 > limit
    assert s1.qdot[3] == pytest.approx(limit)


def test_position_limit_clamps_and_warns():
    q = np.zeros(9)
    q[3] = MODEL.chain.links[3].q_max - 1e-4  # neck-pitch just below its stop
    state = PlantState(t=0.0, q=q, qdot=np.zeros(9))
    with pytest.warns(RuntimeWarning, match="position limit"):
        s1 = step(MODEL, state, np.zeros(9), make_cmd(neck=(2.0, 0.0, 0.0)), DT, PlantParams(0.0, 0.0))
    assert s1.q[3] == pytest.approx(MODEL.chain.links[3].q_max)
    assert s1.qdot[3] == 0.0


def test_base_stage_integrates():
    s1 = step(MODEL, rest_state(), np.zeros(9), None, DT, PlantParams(), base_vel=[0.0, 0.2, -0.1])
    assert np.allclose(s1.base_offset, [0.0, 0.002, -0.001])
    assert s1.t == pytest.approx(DT)


def test_step_diverges_rather_than_overflowing():
    # An unlimited joint driven at 1e300 rad/s for 1e10 s overflows: the new
    # state's one finiteness check reports it as divergence.
    chain = KinematicChain(
        tuple(replace(link, q_min=-math.inf, q_max=math.inf, v_max=math.inf) for link in MODEL.chain.links),
        segments=MODEL.chain.segments,
    )
    model = replace(MODEL, chain=chain)
    active = np.zeros(9, dtype=bool)
    active[0] = True
    with pytest.raises(SimulationDiverged, match="non-finite") as exc, np.errstate(over="ignore"):
        step(model, rest_state(), np.full(9, 1e300), None, 1e10, active=active)
    assert exc.value.t == 1e10


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_plant_state_rejects_non_finite_time(t):
    with pytest.raises(InvalidInput, match="PlantState.t must be finite"):
        PlantState(t=t, q=np.zeros(9), qdot=np.zeros(9))


def test_step_rejects_bad_dt():
    with pytest.raises(InvalidInput):
        step(MODEL, rest_state(), np.zeros(9), None, 0.0)
    with pytest.raises(InvalidInput):
        PlantParams(tau_neck=-0.1)


@pytest.mark.parametrize("base_vel", [[1.0, 2.0], [math.nan, 0.0, 0.0], [0.0, math.inf, 0.0], np.zeros((1, 3))])
def test_step_rejects_bad_base_vel(base_vel):
    with pytest.raises(InvalidInput, match="base_vel must be a finite 3-vector"):
        step(MODEL, rest_state(), np.zeros(9), None, DT, base_vel=base_vel)


def array_expand(arr):
    tilt, version, vergence = arr[6], arr[7], arr[8]
    return np.concatenate([arr[:6], [tilt, version + 0.5 * vergence, tilt, version - 0.5 * vergence]])


def array_collapse(arr):
    tilt_left, pan_left, tilt_right, pan_right = arr[6:]
    if abs(tilt_left - tilt_right) > TILT_TOL:
        raise InvalidInput(f"tilt coupling violated: left {tilt_left} vs right {tilt_right}")
    return np.concatenate([arr[:6], [tilt_left, 0.5 * (pan_left + pan_right), pan_left - pan_right]])


def array_step(model, state, disturbance_qdot, command, dt, params, active=None, base_vel=None):
    """Reference for step: the plant formula as numpy array arithmetic,
    which step's float loops must match bit for bit.  Returns (t, q, qdot,
    base_offset)."""
    act = np.zeros(9, dtype=bool) if active is None else np.asarray(active, dtype=bool)
    vel = np.zeros(3) if base_vel is None else np.asarray(base_vel, dtype=float)
    setpoint = np.zeros(9)
    if command is not None:
        setpoint[3:6], setpoint[6:9] = command.qdot_neck, command.qdot_eye
    g_neck = simulator._tracking_gain(dt, params.tau_neck)
    g_eye = simulator._tracking_gain(dt, params.tau_eye)
    gain = np.array([0.0, 0.0, 0.0, g_neck, g_neck, g_neck, g_eye, g_eye, g_eye])
    tracked = state.qdot + gain * (setpoint - state.qdot)
    tracked[:3] = 0.0
    qdot = np.where(act, np.asarray(disturbance_qdot, dtype=float), tracked)
    chain = model.chain
    qdot_mech = np.minimum(np.maximum(array_expand(qdot), -chain.v_max), chain.v_max)
    t = state.t + dt
    q_mech = array_expand(state.q) + dt * qdot_mech
    clamped = (q_mech < chain.q_min) | (q_mech > chain.q_max)
    if clamped.any():
        warnings.warn(JointLimitWarning(t, np.nonzero(clamped)[0].tolist()))
        q_mech = np.minimum(np.maximum(q_mech, chain.q_min), chain.q_max)
        qdot_mech = np.where(clamped, 0.0, qdot_mech)
    q_new, qdot_new = array_collapse(q_mech), array_collapse(qdot_mech)
    base_offset = state.base_offset + dt * vel
    finite = np.isfinite(q_new).all() and np.isfinite(qdot_new).all() and np.isfinite(base_offset).all()
    if not (finite and math.isfinite(t)):
        raise SimulationDiverged("plant state became non-finite", t=t)
    return t, q_new, qdot_new, base_offset


def _unlimited(chain, pick):
    links = [replace(k, q_min=-math.inf, q_max=math.inf, v_max=math.inf) if pick(i) else k
             for i, k in enumerate(chain.links)]
    return replace(MODEL, chain=replace(chain, links=tuple(links)))


# The default head, the head with every joint unlimited, and one whose odd
# links are unlimited and whose even links stop at a signed zero (the tilts,
# 6 and 8, alike: one axis).
_ZERO_STOPS = {0: dict(q_min=-0.0), 2: dict(q_max=0.0), 4: dict(q_min=0.0), 6: dict(q_max=-0.0), 8: dict(q_max=-0.0)}
STEP_MODELS = (
    MODEL,
    _unlimited(MODEL.chain, lambda i: True),
    _unlimited(
        replace(MODEL.chain, links=tuple(replace(k, **_ZERO_STOPS.get(i, {})) for i, k in enumerate(MODEL.chain.links))),
        lambda i: i % 2 == 1,
    ),
)


def step_cases(seed, n):
    """n seeded step arguments: (model, state, disturbance, command, dt,
    params, active, base_vel).  Values mix ordinary rates with signed zeros,
    joint limits (ties), rate limits and values up to 1.7e308, whose
    differences overflow; dt and tau may be numpy float32 scalars; command,
    active and base_vel may be None."""
    rng = np.random.default_rng(seed)

    def values(size, scale, limits=()):
        x = rng.normal(0.0, scale, size)
        special = [0.0, -0.0, 1e300, -1e300, 1.7e308, -1.7e308, *limits]
        for i in np.flatnonzero(rng.random(size) < 0.3):
            x[i] = special[rng.integers(len(special))]
        return x

    for _ in range(n):
        model = STEP_MODELS[rng.integers(len(STEP_MODELS))]
        chain = model.chain
        limits = [v for v in chain.q_min.tolist()[:6] + chain.q_max.tolist()[:6] if math.isfinite(v)]
        rate_limits = [s * v for v in chain.v_max.tolist()[:6] if math.isfinite(v) for s in (1.0, -1.0)]
        q = np.where(rng.random(9) < 0.5, rng.uniform(-1.0, 1.0, 9), values(9, 0.3, limits))
        q = q if model is not MODEL else np.clip(q, -1e3, 1e3)
        qdot, neck, eye = values(9, 2.0, rate_limits), values(3, 1.0, rate_limits), values(3, 3.0, rate_limits)
        if rng.random() < 0.1:  # eye setpoints minus rates overflow: inf - inf in the coupling
            qdot[6:], eye[:] = (rng.choice([1.7e308, -1.7e308], 3) for _ in range(2))
        state = PlantState(t=float(rng.integers(0, 1000)) * 0.01, q=q, qdot=qdot, base_offset=values(3, 1.0))
        command = None if rng.random() < 0.2 else StabilizerCommand(neck, eye)
        dt = [0.01, np.float32(0.01), float(rng.uniform(1e-4, 0.2)), 1e10, 1e-300][rng.choice(5, p=[0.4, 0.2, 0.3, 0.05, 0.05])]
        taus = [0.0, 0.08, 0.02, np.float32(0.08), float(rng.uniform(0.0, 0.5))]
        params = PlantParams(taus[rng.integers(5)], taus[rng.integers(5)])
        active = None if rng.random() < 0.3 else rng.random(9) < 0.4
        base_vel = None if rng.random() < 0.3 else values(3, 0.5)
        yield model, state, values(9, 1.0, rate_limits), command, dt, params, active, base_vel


def outcome(call):
    """What a step call gives: its result's bytes (t with its dtype) or its
    exception, and the text of each warning it raised."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
        warnings.simplefilter("always")
        try:
            t, *arrays = call()
        except (SimulationDiverged, InvalidInput) as err:
            got = (type(err).__name__, str(err), getattr(err, "t", None))
        else:
            got = (np.asarray(t).dtype.str, np.asarray(t).tobytes(), *(a.tobytes() for a in arrays))
    return got, [(w.category.__name__, str(w.message)) for w in caught]


def test_step_matches_the_array_formula_bit_for_bit():
    # 2,000 seeded cases: the float step gives the bytes and warnings of the
    # numpy array formula, clamps, signed zeros and overflow included.
    seen = dict.fromkeys(("clamped", "tied", "diverged", "signed zero", "float32 dt", "unlimited"), 0)
    for model, state, dist, command, dt, params, active, base_vel in step_cases(2025, 2000):
        kw = dict(active=active, base_vel=base_vel)

        def floats():
            s = step(model, state, dist, command, dt, params, **kw)
            return s.t, s.q, s.qdot, s.base_offset

        got = outcome(floats)
        assert got == outcome(lambda: array_step(model, state, dist, command, dt, params, **kw))
        (result, caught) = got
        seen["clamped"] += bool(caught)
        seen["tied"] += not caught and len(result) == 5 and bool(
            np.isin(np.frombuffer(result[2], dtype=float)[:6], np.r_[model.chain.q_min, model.chain.q_max]).any()
        )
        seen["diverged"] += result[0] == "SimulationDiverged"
        seen["signed zero"] += len(result) == 5 and b"\x00" * 7 + b"\x80" in b"".join(result[2:])
        seen["float32 dt"] += isinstance(dt, np.float32)
        seen["unlimited"] += model is not MODEL
    assert all(count >= 20 for count in seen.values()), seen


def test_base_translation_only_offsets_world_points():
    # The loop reads one head model and adds the base offset to world points:
    # a chain whose base pose is translated must give the same points plus
    # the offset, the same rotations and axes, and the same Jacobian.
    rng = np.random.default_rng(6)
    base = MODEL.chain.base_pose
    for _ in range(200):
        q = rng.uniform(-0.6, 0.6, 9)
        q[8] = rng.uniform(0.005, 0.3)  # verged, so the fixation point exists
        b = rng.uniform(-5.0, 5.0, 3)
        moved = replace(MODEL, chain=replace(MODEL.chain, base_pose=Pose(base.rot, base.pos + b)))
        f0, f1 = camera_frames(MODEL.chain, q), camera_frames(moved.chain, q)
        for o in ("o_left", "o_right"):
            assert np.max(np.abs(getattr(f1, o) - (getattr(f0, o) + b))) <= 1e-12
        for r in ("rot_left", "rot_right", "z_left", "z_right"):
            assert np.array_equal(getattr(f1, r), getattr(f0, r))
        fp0, fp1 = fixation_point(f0).point, fixation_point(f1).point
        assert np.max(np.abs(fp1 - (fp0 + b))) <= 1e-12
        imu0, imu1 = MODEL.imu_pose(expand_head_q(q)), moved.imu_pose(expand_head_q(q))
        assert np.max(np.abs(imu1.pos - (imu0.pos + b))) <= 1e-12
        assert np.array_equal(imu1.rot, imu0.rot)
        J0, J1 = fixation_full_jacobian(MODEL.chain, q), fixation_full_jacobian(moved.chain, q)
        # Eye columns grow without bound as the vergence closes, so the
        # Jacobian's rounding is bounded relative to its largest entry.
        assert np.max(np.abs(J1 - J0)) <= 1e-12 * np.max(np.abs(J0))


# ------------------------------------------------------------------- gyro


def test_gyro_single_axis_neck_yaw():
    rate = 0.4
    q1 = np.zeros(9)
    q1[5] = rate * DT
    a = rest_state()
    b = PlantState(t=DT, q=q1, qdot=np.zeros(9))
    sample = synth_gyro(MODEL, a, b, DT)
    # neck-yaw axis is world +z at the neutral posture; single-axis rotation
    # makes the log-map exact
    assert np.allclose(sample.omega, [0.0, 0.0, rate], atol=1e-12)
    assert np.linalg.norm(sample.omega) == pytest.approx(rate, abs=1e-6)


def test_gyro_reports_world_frame_after_prerotation():
    # with the torso rolled 90 deg the neck-pitch axis (+y at neutral) maps
    # to world +z
    rate = 0.3
    q0 = np.zeros(9)
    q0[2] = math.pi / 2
    q1 = q0.copy()
    q1[3] = rate * DT
    a = PlantState(t=0.0, q=q0, qdot=np.zeros(9))
    b = PlantState(t=DT, q=q1, qdot=np.zeros(9))
    sample = synth_gyro(MODEL, a, b, DT)
    assert np.allclose(sample.omega, [0.0, 0.0, rate], atol=1e-9)


def test_gyro_position_is_imu_world_position():
    b = PlantState(t=DT, q=np.zeros(9), qdot=np.zeros(9), base_offset=np.array([0.5, 0.0, 0.0]))
    sample = synth_gyro(MODEL, rest_state(), b, DT)
    expected = MODEL.imu_pose(np.zeros(10)).pos + b.base_offset
    assert np.allclose(sample.position, expected)


def test_gyro_noise_seeded_and_requires_rng():
    b = PlantState(t=DT, q=np.zeros(9), qdot=np.zeros(9))
    with pytest.raises(InvalidInput):
        synth_gyro(MODEL, rest_state(), b, DT, sigma=0.01)
    s1 = synth_gyro(MODEL, rest_state(), b, DT, sigma=0.01, rng=np.random.default_rng(7))
    s2 = synth_gyro(MODEL, rest_state(), b, DT, sigma=0.01, rng=np.random.default_rng(7))
    assert np.array_equal(s1.omega, s2.omega)
    assert not np.allclose(s1.omega, 0.0)


@pytest.mark.parametrize("sigma", [math.nan, -1.0, math.inf])
def test_gyro_rejects_bad_sigma(sigma):
    b = PlantState(t=DT, q=np.zeros(9), qdot=np.zeros(9))
    with pytest.raises(InvalidInput, match="sigma"):
        synth_gyro(MODEL, rest_state(), b, DT, sigma=sigma, rng=np.random.default_rng(7))


def test_gyro_is_translation_blind():
    b = PlantState(t=DT, q=np.zeros(9), qdot=np.zeros(9), base_offset=np.array([0.0, 0.05, 0.0]))
    sample = synth_gyro(MODEL, rest_state(), b, DT)
    assert np.allclose(sample.omega, 0.0, atol=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    angle=st.one_of(
        st.floats(0.0, 1e-3),  # series branch
        st.floats(1e-3, math.pi - 1e-3),
        st.floats(math.pi - 1e-3, math.pi),  # diagonal quaternion branches
    ),
)
def test_so3_log_matches_scipy_bit_for_bit(seed, angle):
    from scipy.spatial.transform import Rotation

    rng = np.random.default_rng(seed)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    base = Rotation.random(random_state=seed).as_matrix()
    # a relative rotation formed the way synth_gyro forms it
    rel = base.T @ (base @ Rotation.from_rotvec(angle * axis).as_matrix())
    assert _so3_log(rel).tobytes() == Rotation.from_matrix(rel).as_rotvec().tobytes()


def test_import_leaves_scipy_unloaded():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, gazestab; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# ------------------------------------------------------------- flow metric


def lateral_frames(offset):
    rot = np.eye(3)
    o = np.array(offset, float)
    return CameraFrames(
        o_left=o,
        o_right=o + np.array([0.068, 0.0, 0.0]),
        z_left=np.array([0.0, 0.0, 1.0]),
        z_right=np.array([0.0, 0.0, 1.0]),
        rot_left=rot,
        rot_right=rot,
    )


def grid_cloud(depth, half=1.0, n=7):
    xs = np.linspace(-half, half, n)
    pts = [(x, y, depth) for x in xs for y in xs]
    return np.array(pts)


def test_flow_zero_for_identical_frames():
    fr = lateral_frames([0.0, 0.0, 0.0])
    assert flow_metric(CameraModel(), fr, fr, grid_cloud(4.0)) == 0.0


def test_flow_exact_for_lateral_translation_at_uniform_depth():
    cam = CameraModel()
    depth, dx = 5.0, 0.01
    got = flow_metric(cam, lateral_frames([0.0, 0.0, 0.0]), lateral_frames([dx, 0.0, 0.0]), grid_cloud(depth))
    assert got == pytest.approx(cam.f * dx / depth, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    f=st.floats(100.0, 500.0),
    depth=st.floats(1.0, 10.0),
    dx=st.floats(1e-4, 0.02),
)
def test_flow_translation_exactness_property(f, depth, dx):
    cam = CameraModel(f=f)
    cloud = grid_cloud(depth, half=0.2)
    got = flow_metric(cam, lateral_frames([0.0, 0.0, 0.0]), lateral_frames([dx, 0.0, 0.0]), cloud)
    assert got == pytest.approx(f * dx / depth, rel=1e-9)


def test_flow_excludes_border_and_behind_points():
    cam = CameraModel()
    # 12 interior points plus one behind the camera and one far outside
    cloud = np.vstack([grid_cloud(4.0, half=0.5, n=4)[:12], [[0.0, 0.0, -3.0]], [[50.0, 0.0, 4.0]]])
    fr_a = lateral_frames([0.0, 0.0, 0.0])
    fr_b = lateral_frames([0.01, 0.0, 0.0])
    got = flow_metric(cam, fr_a, fr_b, cloud)
    assert got == pytest.approx(cam.f * 0.01 / 4.0, rel=1e-9)


def test_flow_insufficient_coverage():
    cloud = grid_cloud(4.0, half=0.2, n=3)  # 9 points < 10
    with pytest.raises(InsufficientCoverage):
        flow_metric(CameraModel(), lateral_frames([0, 0, 0]), lateral_frames([0.01, 0, 0]), cloud)


def test_flow_matches_per_point_pinhole_oracle():
    rng = np.random.default_rng(42)
    q = rng.uniform(-0.2, 0.2, 9)
    q[8] = 0.15
    fr_a = camera_frames(MODEL.chain, q)
    q2 = q + rng.uniform(-0.02, 0.02, 9)
    q2[8] = 0.15
    fr_b = camera_frames(MODEL.chain, q2)
    cam = CameraModel()
    fp = fixation_point(fr_a).point
    cloud = fp + rng.uniform(-0.8, 0.8, (300, 3))

    def project(fr, p):
        local = fr.rot_left.T @ (p - fr.o_left)
        if local[2] <= 1e-9:
            return None
        u = cam.width / 2 + cam.f * local[0] / local[2]
        v = cam.height / 2 + cam.f * local[1] / local[2]
        if not (cam.border <= u <= cam.width - cam.border and cam.border <= v <= cam.height - cam.border):
            return None
        return np.array([u, v])

    disp = []
    for p in cloud:
        a, b = project(fr_a, p), project(fr_b, p)
        if a is not None and b is not None:
            disp.append(np.linalg.norm(b - a))
    assert len(disp) >= 10
    assert flow_metric(cam, fr_a, fr_b, cloud) == pytest.approx(float(np.mean(disp)), rel=1e-12)


def row_project(cam, rot, origin, cloud):
    """The (n, 3) projection _project's (3, n) form replaced, term for term:
    its bit-for-bit reference."""
    local = (cloud - origin) @ rot
    z = local[:, 2]
    in_front = z > 1e-9
    zs = np.where(in_front, z, 1.0)
    u = cam.width / 2.0 + cam.f * local[:, 0] / zs
    v = cam.height / 2.0 + cam.f * local[:, 1] / zs
    interior = in_front & (u >= cam.border) & (u <= cam.width - cam.border)
    return u, v, interior & (v >= cam.border) & (v <= cam.height - cam.border)


@pytest.mark.parametrize("n", [900, 1600])
def test_project_of_the_transposed_cloud_matches_the_row_formula(n):
    rng = np.random.default_rng(n)
    cam = CameraModel()
    cloud = rng.normal([2.0, 0.0, 0.0], 3.0, (n, 3))  # some of it behind every camera
    cloud_t = np.ascontiguousarray(cloud.T)
    behind = 0
    for _ in range(100):
        fr = camera_frames(MODEL.chain, rng.uniform(-1.0, 1.0, 9))
        got = simulator._project(cam, fr.rot_left, fr.o_left, cloud_t)
        want = row_project(cam, fr.rot_left, fr.o_left, cloud)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        behind += np.count_nonzero((cloud - fr.o_left) @ fr.rot_left[:, 2] <= 1e-9)
    assert behind > 0


def test_flow_squares_only_the_counted_points():
    # At the largest focal length a point just past the near plane projects
    # far off the image (u ~ 5e168 here); its displacement squared overflows.
    cam = CameraModel(f=MAX_SCALE)
    on_axis = [[0.0, 0.0, depth] for depth in range(1, 13)]
    cloud = np.array(on_axis + [[1e60, 0.0, 2e-9]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = flow_metric(cam, lateral_frames([0.0, 0.0, 0.0]), lateral_frames([0.0, 0.0, 1e-9]), cloud)
    assert got == 0.0


def test_camera_model_validation():
    with pytest.raises(InvalidInput):
        CameraModel(f=-1.0)
    with pytest.raises(InvalidInput):
        CameraModel(width=30, border=20)


@pytest.mark.parametrize(
    "kw", [dict(border=math.nan), dict(width=math.nan), dict(height=math.inf), dict(width=320.0), dict(border=True)]
)
def test_camera_model_rejects_non_integer_sizes(kw):
    with pytest.raises(InvalidInput, match="must be integers"):
        CameraModel(**kw)


def test_camera_model_accepts_numpy_integers():
    assert CameraModel(width=np.int64(320), border=np.int32(20)).width == 320


def test_make_cloud_deterministic_shell():
    spec = CloudSpec(n=600, r_min=5.0, r_max=6.0, seed=3)
    c1 = make_cloud(spec, [1.0, 0.0, 0.5])
    c2 = make_cloud(spec, [1.0, 0.0, 0.5])
    assert np.array_equal(c1, c2)
    r = np.linalg.norm(c1 - np.array([1.0, 0.0, 0.5]), axis=1)
    assert np.all((r >= 5.0) & (r <= 6.0))
    with pytest.raises(InvalidInput):
        CloudSpec(n=100)


# ------------------------------------------------------------------ scripts


def test_script_rejects_overlap_and_unknown_channel():
    bad = DisturbanceScript(
        "x",
        segments=(
            ScriptSegment(0.0, 1.0, "torso-yaw", 0.1),
            ScriptSegment(0.5, 1.5, "torso-yaw", 0.2),
        ),
    )
    with pytest.raises(InvalidInput, match="overlap"):
        bad.validate(MODEL)
    with pytest.raises(InvalidInput, match="unknown script channel"):
        DisturbanceScript("y", segments=(ScriptSegment(0.0, 1.0, "elbow", 0.1),)).validate(MODEL)
    with pytest.raises(InvalidInput):
        ScriptSegment(1.0, 0.5, "torso-yaw", 0.1)


def test_script_realize_grid_and_external_flag():
    script = DisturbanceScript(
        "x",
        segments=(
            ScriptSegment(0.02, 0.05, "torso-yaw", 0.3),
            ScriptSegment(0.0, 0.03, "base-y", 0.1, external=True),
        ),
    )
    track = script.realize(MODEL, DT, 6)
    assert np.array_equal(np.nonzero(track.qdot[:, 0])[0], [2, 3, 4])
    assert np.all(track.active[2:5, 0])
    assert np.array_equal(track.commanded_qdot[:, 0], track.qdot[:, 0])  # not external
    assert np.array_equal(np.nonzero(track.base_vel[:, 1])[0], [0, 1, 2])
    assert np.all(track.commanded_base == 0.0)  # external base motion


def lowpass(eta, amplitude, bandwidth):
    """The first-order low-pass recursion a noise line drives with eta."""
    a = math.exp(-2.0 * math.pi * bandwidth * DT)
    drive = amplitude * math.sqrt(1.0 - a * a)
    x, out = 0.0, []
    for e in eta:
        x = a * x + drive * e
        out.append(x)
    return np.array(out)


def test_noise_matches_lowpass_recursion():
    seg = NoiseSegment(0.0, 0.05, ("torso-roll",), amplitude=0.2, bandwidth=1.5, seed=11)
    track = DisturbanceScript("n", noise=(seg,)).realize(MODEL, DT, 5)
    eta = np.random.default_rng(11).normal(size=5)
    assert np.allclose(track.qdot[:, 2], lowpass(eta, 0.2, 1.5), atol=1e-15)
    assert np.all(track.commanded_qdot == 0.0)  # noise defaults to external


@pytest.mark.parametrize("channels", [("torso-roll", "neck-yaw"), ("neck-yaw", "torso-roll")])
def test_noise_line_continues_one_stream_across_its_channels(channels):
    # The line's seed starts one generator; each channel, in the order the
    # line lists them, takes the next rows-many draws.
    seg = NoiseSegment(0.01, 0.05, channels, amplitude=0.2, bandwidth=1.5, seed=11)
    track = DisturbanceScript("n", noise=(seg,)).realize(MODEL, DT, 6)
    eta = np.random.default_rng(11).normal(size=8)
    for i, ch in enumerate(channels):
        col = MODEL.dof_names.index(ch)
        assert track.qdot[0, col] == 0.0 and track.qdot[5, col] == 0.0
        assert np.array_equal(track.qdot[1:5, col], lowpass(eta[4 * i : 4 * i + 4], 0.2, 1.5)), ch
        assert np.all(track.active[1:5, col]) and not track.active[[0, 5], col].any()
    assert np.count_nonzero(track.qdot.any(axis=0)) == 2


def test_commanded_noise_feeds_the_commanded_tables():
    noise = (
        NoiseSegment(0.0, 0.05, ("neck-pitch",), 0.2, 1.5, seed=3, external=False),
        NoiseSegment(0.0, 0.05, ("base-x",), 0.1, 1.0, seed=4, external=False),
        NoiseSegment(0.0, 0.05, ("torso-yaw",), 0.2, 1.5, seed=5),
    )
    track = DisturbanceScript("n", noise=noise).realize(MODEL, DT, 5)
    assert np.all(track.qdot[:, [3, 0]] != 0.0) and np.all(track.base_vel[:, 0] != 0.0)
    assert np.array_equal(track.commanded_qdot[:, 3], track.qdot[:, 3])
    assert np.array_equal(track.commanded_base, track.base_vel)
    assert np.all(track.commanded_qdot[:, 0] == 0.0)  # the external line


def test_base_noise_fills_base_vel_and_leaves_active_unset():
    seg = NoiseSegment(0.0, 0.05, ("base-y", "base-z"), 0.1, 1.0, seed=4)
    track = DisturbanceScript("n", noise=(seg,)).realize(MODEL, DT, 5)
    eta = np.random.default_rng(4).normal(size=10)
    assert np.array_equal(track.base_vel[:, 1], lowpass(eta[:5], 0.1, 1.0))
    assert np.array_equal(track.base_vel[:, 2], lowpass(eta[5:], 0.1, 1.0))
    assert np.all(track.base_vel[:, 0] == 0.0) and np.all(track.qdot == 0.0)
    assert not track.active.any()
    assert np.all(track.commanded_base == 0.0)


@pytest.mark.parametrize("amplitude", [-0.1, math.nan, math.inf, 1.7e308])
def test_noise_amplitude_that_could_overflow_rejected(amplitude):
    with pytest.raises(InvalidInput, match="noise amplitude"):
        NoiseSegment(0.0, 1.0, ("torso-yaw",), amplitude, 1.0, seed=1)


def test_noise_at_the_amplitude_cap_realizes_finite():
    seg = NoiseSegment(0.0, 10.0, ("torso-yaw",), 1e300, 1.0, seed=1)
    assert np.isfinite(DisturbanceScript("n", noise=(seg,)).realize(MODEL, DT, 1000).qdot).all()


def test_noise_overlap_with_segment_rejected():
    script = DisturbanceScript(
        "x",
        segments=(ScriptSegment(0.0, 1.0, "torso-yaw", 0.1),),
        noise=(NoiseSegment(0.5, 2.0, ("torso-yaw",), 0.1, 1.0, seed=1),),
    )
    with pytest.raises(InvalidInput, match="overlap"):
        script.validate(MODEL)


# ------------------------------------------------------------------- loop


def small_yaw_script():
    return DisturbanceScript(
        "yaw",
        segments=(
            ScriptSegment(0.1, 0.6, "torso-yaw", 0.35),
            ScriptSegment(0.6, 1.1, "torso-yaw", -0.35),
        ),
    )


def run(mode, **kw):
    defaults = dict(duration=1.3, gyro_sigma=0.0)
    cfg_kw = kw.pop("cfg", {})
    defaults.update(kw)
    cfg = StabilizerConfig(mode=mode, **cfg_kw)
    return run_experiment(MODEL, small_yaw_script(), SimSettings(control=cfg, **defaults))


def test_log_shape_and_time_grid():
    log = run("off")
    n = int(round(1.3 / DT)) + 1
    assert log.n_rows() == n
    assert np.allclose(np.diff(log.t), DT)
    assert log.meta["mode"] == "off" and log.meta["script"] == "yaw"
    assert np.all(log.optfl >= 0.0) and np.all(log.n_valid[1:] >= 10)


def test_initial_state_fixates_at_requested_distance():
    st0 = initial_state(MODEL, 6.0)
    fr = camera_frames(MODEL.chain, st0.q)
    fp = fixation_point(fr).point
    cyclopean = 0.5 * (fr.o_left + fr.o_right)
    assert np.linalg.norm(fp - cyclopean) == pytest.approx(6.0, abs=1e-9)


def test_run_deterministic():
    a, b = run("ifb", gyro_sigma=0.005, seed=5), run("ifb", gyro_sigma=0.005, seed=5)
    assert np.array_equal(a.optfl, b.optfl)
    assert np.array_equal(a.q, b.q)
    c = run("ifb", gyro_sigma=0.005, seed=6)
    assert not np.array_equal(a.optfl, c.optfl)


def test_kff_ideal_plant_annihilates_twist():
    ideal = dict(plant=PlantParams(0.0, 0.0), cfg=dict(damping=0.0))
    comp = run("kff", **ideal)
    base = run("off", plant=PlantParams(0.0, 0.0))
    norms_c = np.linalg.norm(comp.true_twist[1:], axis=1)
    norms_b = np.linalg.norm(base.true_twist[1:], axis=1)
    moving = norms_b > 1e-6
    assert moving.sum() > 50
    assert np.max(norms_c[moving] / norms_b[moving]) < 1e-6
    assert np.mean(comp.optfl[1:]) < 0.1 * np.mean(base.optfl[1:])


def test_ifb_settles_to_full_compensation():
    # the efference copy keeps the feedback loop from settling at half
    # compensation: once the lag transient dies out the residual rotation
    # must sit near zero, not near disturbance/2
    comp = run("ifb")
    settled = (comp.t > 0.45) & (comp.t <= 0.6)  # tail of the 0.35 rad/s span
    residual = np.linalg.norm(comp.true_twist[settled, 3:], axis=1)
    assert np.max(residual) < 0.05 * 0.35


def test_mode_ordering_on_small_script():
    m = {mode: float(np.mean(run(mode).optfl[1:])) for mode in ("kff", "ifb", "off")}
    assert m["kff"] < m["ifb"] < m["off"]


def test_eyes_only_ignores_neck():
    log = run("kff", cfg=dict(dof_set="eyes"))
    assert np.all(log.cmd[:, :3] == 0.0)
    assert np.any(log.cmd[:, 3:] != 0.0)


def test_gyro_delay_degrades_ifb():
    now = float(np.mean(run("ifb").optfl[1:]))
    late = float(np.mean(run("ifb", gyro_delay_ticks=4).optfl[1:]))
    assert late > now


def test_gyro_delay_past_the_run_end_reads_no_sample():
    # Every tick of a 20-tick run reads the zero-rotation prefill whether the
    # delay is 20 ticks or 10**12, and the longer one allocates nothing more.
    within = run("ifb", duration=0.2, gyro_delay_ticks=20)
    beyond = run("ifb", duration=0.2, gyro_delay_ticks=10**12)
    assert np.all(within.est_twist[:, 3:] == 0.0)
    for name in ("q", "qdot", "cmd", "est_twist", "optfl"):
        assert np.array_equal(getattr(within, name), getattr(beyond, name)), name


def test_summarize_reductions_and_segments():
    base = run("off")
    comp = run("kff")
    s = summarize(comp, baseline=base)
    assert s.reduction_pct is not None and s.reduction_pct > 50.0
    assert s.mean_optfl == pytest.approx(float(np.mean(comp.optfl[1:])))
    labels = [seg.label for seg in s.segments]
    assert labels == ["torso-yaw", "torso-yaw"]
    self_cmp = summarize(base, baseline=base)
    assert self_cmp.reduction_pct == pytest.approx(0.0, abs=1e-12)


def test_summarize_rejects_mismatched_runs():
    base = run("off")
    other = run_experiment(
        MODEL,
        small_yaw_script(),
        SimSettings(control=StabilizerConfig(mode="off"), duration=0.8, gyro_sigma=0.0),
    )
    with pytest.raises(InvalidComparison):
        summarize(other, baseline=base)


def shipped(name):
    """(model, script, settings) of a packaged config."""
    data = default_data_dir()
    cfg = parse_run_config(os.path.join(data, f"{name}.config"))
    model = parse_model_file(os.path.join(data, cfg.model_path))
    script = parse_script_file(os.path.join(data, cfg.script_path))
    return model, script, cfg.settings


def test_singular_gaze_holds_previous_command():
    # A 10 km fixation leaves the optical axes parallel to within the
    # singular band (denom ~ -4.6e-11) on every tick: the loop must hold its
    # (zero) command throughout instead of raising.
    for name in ("exp_a_kff", "exp_a_ifb"):
        model, script, settings = shipped(name)
        log = run_experiment(model, script, replace(settings, fixation_distance=1e4, duration=3.0))
        assert np.all(log.singular), name
        assert np.all(log.cmd == 0.0), name


def test_settings_validation():
    with pytest.raises(InvalidInput):
        SimSettings(dt=0.0)
    with pytest.raises(InvalidInput):
        SimSettings(duration=-1.0)
    with pytest.raises(InvalidInput):
        SimSettings(gyro_delay_ticks=-1)
    with pytest.raises(InvalidInput):
        SimSettings(fixation_distance=0.0)
    with pytest.raises(InvalidInput, match=f"over the cap of {MAX_TICKS}"):
        SimSettings(duration=(MAX_TICKS + 1) * DT)
    with pytest.raises(InvalidInput, match="duration shorter than one tick"):
        SimSettings(duration=0.4 * DT)


@pytest.mark.parametrize("delay", [1.5, math.nan, math.inf, "2", True])
def test_settings_reject_non_integer_gyro_delay(delay):
    with pytest.raises(InvalidInput, match="gyro delay must be an integer"):
        SimSettings(gyro_delay_ticks=delay)


def test_gyro_delay_line_holds_only_what_it_reads(monkeypatch):
    # iFB reads the sample gyro_delay_ticks before the newest, so the run
    # keeps gyro_delay_ticks + 1 samples, not one per tick.
    lengths = []

    class Recorded(deque):
        def append(self, sample):
            super().append(sample)
            lengths.append(len(self))

    monkeypatch.setattr(simulator, "deque", Recorded)
    log = run("ifb", gyro_delay_ticks=4)
    assert len(lengths) == log.n_rows() - 1 and max(lengths) == 5


def runs_of(keys) -> int:
    """Runs of equal consecutive keys: what a one-entry reuse computes."""
    return 1 + sum(a != b for a, b in zip(keys, keys[1:]))


def state_runs(log):
    """(runs of tick k's head state, runs of its (state, estimate) pair)
    over a log's ticks, states and estimates compared by their bytes."""
    states = [log.q[k].tobytes() for k in range(log.n_rows() - 1)]
    return runs_of(states), runs_of([(q, log.est_twist[k + 1].tobytes()) for k, q in enumerate(states)])


def test_loop_builds_each_state_geometry_once(monkeypatch):
    # 0.5 s of a head at rest: one fixation Jacobian per head state, not per
    # tick, and one fixation point per head pass (each pass walks the links
    # once), never more.
    import gazestab.stereo

    counts = dict.fromkeys(("fixation_point", "link_frames", "fixation_full_jacobian"), 0)
    for name in counts:
        mod = simulator if name == "fixation_full_jacobian" else gazestab.stereo

        def counted(*args, _name=name, _real=getattr(mod, name), **kw):
            counts[_name] += 1
            return _real(*args, **kw)

        monkeypatch.setattr(mod, name, counted)
    monkeypatch.setattr(gazestab.stereo, "_last_head_pass", (None, b"", None))
    model, script, settings = shipped("exp_a_kff")
    log = run_experiment(model, script, replace(settings, duration=0.5))
    assert counts["fixation_full_jacobian"] == state_runs(log)[0] == 1
    assert counts["fixation_point"] == counts["link_frames"] <= 52


def run_counting_jacobian_work(monkeypatch, mode, script):
    """(log, geometric_jacobian calls made through gazestab.stereo) of a
    0.5 s run, starting with no head pass kept."""
    import gazestab.stereo

    calls = [0]
    real = gazestab.stereo.geometric_jacobian

    def counted(*args, **kw):
        calls[0] += 1
        return real(*args, **kw)

    monkeypatch.setattr(gazestab.stereo, "geometric_jacobian", counted)
    monkeypatch.setattr(gazestab.stereo, "_last_head_pass", (None, b"", None))
    log = run_experiment(MODEL, script, SimSettings(control=StabilizerConfig(mode=mode), duration=0.5, gyro_sigma=0.0))
    assert not log.singular.any()
    return log, calls[0]


@pytest.mark.parametrize("mode", ["off", "ifb"])
def test_still_head_computes_its_jacobian_once(monkeypatch, mode):
    # Base translation leaves the passive head, and the rotation-only iFB
    # estimate, at rest: 50 ticks of one head state build one J (one
    # geometric_jacobian call, for its trunk columns), not one per tick.
    script = DisturbanceScript("slide", segments=(ScriptSegment(0.0, 0.5, "base-x", 0.1),))
    log, calls = run_counting_jacobian_work(monkeypatch, mode, script)
    assert log.n_rows() == 51 and np.all(log.q == log.q[0]) and np.any(log.base_offset[-1] != 0.0)
    assert calls == 1


def test_moving_head_computes_one_jacobian_per_tick(monkeypatch):
    script = DisturbanceScript("yaw", segments=(ScriptSegment(0.0, 0.5, "torso-yaw", 0.35),))
    log, calls = run_counting_jacobian_work(monkeypatch, "kff", script)
    assert np.all(np.any(np.diff(log.q, axis=0) != 0.0, axis=1))  # the head moves every tick
    assert calls == 50


def links_walked_between_steps(monkeypatch, mode):
    """Link transforms link_frames forms between consecutive plant steps of
    a 0.5 s run whose head moves every tick."""
    import gazestab.chain
    import gazestab.models
    import gazestab.stereo

    calls = [0]
    real_walk, real_step = gazestab.chain.link_frames, simulator.step
    at_step = []

    def counted_walk(chain, q):
        calls[0] += np.size(q)
        return real_walk(chain, q)

    def counted_step(*args, **kw):
        at_step.append(calls[0])
        return real_step(*args, **kw)

    for module in (gazestab.chain, gazestab.models, gazestab.stereo):
        monkeypatch.setattr(module, "link_frames", counted_walk)
    monkeypatch.setattr(simulator, "step", counted_step)
    script = DisturbanceScript("yaw", segments=(ScriptSegment(0.0, 0.5, "torso-yaw", 0.35),))
    log = run_experiment(MODEL, script, SimSettings(control=StabilizerConfig(mode=mode), duration=0.5))
    assert np.all(np.any(np.diff(log.q, axis=0) != 0.0, axis=1))  # the head moves every tick
    assert not log.singular.any()
    return np.diff(at_step + calls)


def test_loop_walks_each_head_state_once(monkeypatch):
    # Between two plant steps the loop walks the new state once, for its
    # camera frames; the next tick's fixation Jacobian reuses that walk.
    per_tick = links_walked_between_steps(monkeypatch, "kff")
    assert per_tick.size == 50 and per_tick.max() <= MODEL.chain.n_joints


def test_ifb_loop_walks_each_head_state_once(monkeypatch):
    # The gyro reads the IMU pose from each state's head pass, with no IMU
    # walk of its own, so an iFB tick also walks only the new state.
    per_tick = links_walked_between_steps(monkeypatch, "ifb")
    assert per_tick.size == 50 and per_tick.max() <= MODEL.chain.n_joints


@pytest.mark.parametrize("delay", [0, 3])
def test_ifb_estimates_match_the_public_gyro_route(delay):
    # Each logged iFB estimate equals, bit for bit, the one built through the
    # public functions from the logged states: synth_gyro on the run's gyro
    # rng, less the efference copy of the neck's own executed rates, delayed
    # by gyro_delay_ticks, then estimate_ifb at the state's fixation point.
    model, script, settings = shipped("exp_b_ifb")
    settings = replace(settings, duration=1.0, gyro_delay_ticks=delay)
    assert settings.gyro_sigma > 0.0
    log = run_experiment(model, script, settings)
    assert not log.singular.any()
    n = log.n_rows() - 1
    track = script.realize(model, settings.dt, n)
    rng = np.random.default_rng(np.random.SeedSequence((settings.seed, 71)))
    states = [PlantState(log.t[k], log.q[k], log.qdot[k], log.base_offset[k]) for k in range(n + 1)]
    samples = []
    for k in range(n):
        state = states[k]
        J = fixation_full_jacobian(model.chain, state.q)
        if k == 0:
            sample = ImuSample(np.zeros(3), model.imu_pose(expand_head_q(state.q)).pos + state.base_offset)
        else:
            gyro = synth_gyro(model, states[k - 1], state, settings.dt, sigma=settings.gyro_sigma, rng=rng)
            self_qdot = np.where(track.active[k - 1][3:6], 0.0, state.qdot[3:6])
            sample = ImuSample(gyro.omega - J[3:6, 3:6] @ self_qdot, gyro.position)
        samples.append(sample)
        use = samples[k - delay] if k >= delay else ImuSample(np.zeros(3), samples[0].position)
        x_fp = fixation_point(camera_frames(model.chain, state.q)).point + state.base_offset
        assert estimate_ifb(use, x_fp).as_array().tobytes() == log.est_twist[k + 1].tobytes(), k


def test_loop_trusts_the_values_it_builds(monkeypatch):
    # After the first plant step the loop builds its camera frames and plant
    # states without their constructor checks; the finiteness and joint-array
    # checks left per tick are the public helpers' checks of their arguments
    # (step checks its new state's floats with math.isfinite).
    import gazestab.chain
    import gazestab.stabilizer
    import gazestab.stereo

    counts = dict.fromkeys(("isfinite", "as_joint_array", "CameraFrames", "PlantState", "ticks"), 0)
    at_first_step = {}

    def counter(key, real):
        def counted(*args, **kw):
            counts[key] += 1
            return real(*args, **kw)

        return counted

    monkeypatch.setattr(np, "isfinite", counter("isfinite", np.isfinite))
    aja = counter("as_joint_array", gazestab.chain.as_joint_array)
    for mod in (gazestab.chain, gazestab.stereo, gazestab.stabilizer, simulator):
        monkeypatch.setattr(mod, "as_joint_array", aja)
    for cls in (CameraFrames, PlantState):
        monkeypatch.setattr(cls, "__post_init__", counter(cls.__name__, cls.__post_init__))
    real_step = simulator.step

    def counted_step(*args, **kw):
        if not at_first_step:
            at_first_step.update(counts)
        counts["ticks"] += 1
        return real_step(*args, **kw)

    monkeypatch.setattr(simulator, "step", counted_step)
    model, script, settings = shipped("exp_a_kff")
    log = run_experiment(model, script, replace(settings, duration=1.5))
    assert np.any(np.diff(log.q[-50:], axis=0) != 0.0)  # the head moves after t = 1 s
    after = {key: counts[key] - at_first_step[key] for key in counts}
    assert after["ticks"] == 150
    assert after["CameraFrames"] == 0 and after["PlantState"] == 0
    assert after["isfinite"] / after["ticks"] <= 7
    assert after["as_joint_array"] / after["ticks"] <= 10


def test_work_ledger_calls_per_tick():
    """Python-level calls into gazestab code per tick, counted as
    sys.setprofile `call` events whose code lives in the package, over a run
    of a shipped config cut short minus a run of half its length (set-up
    cancels).  The counts are exact on any host.  Ceilings, measured at
    landing and lowered by the one-pass DH stack in link_frames (one call
    that forms all link transforms for ten dh_matrix calls per head walk),
    then by a fixation Jacobian that forms its eye-origin partials in one
    cross (one geometric_jacobian call where it made three) and a loop that
    estimates through the estimators' kernels into its log row, then by a
    loop that keeps its J and command while the head holds still, a cached
    KinematicChain.n_joints and a generator-free _so3_log, then by an iFB
    lever arm formed on floats (no _cross_rows call):

    - exp_a_kff, 2 s (the first torso-yaw sweep, 1-2 s): 61.81
    - exp_b_ifb, 1 s (torso noise from 0.5 s): 65.18
    - translate_ifb, 1 s (base-y motion from 0.5 s): 19.0
    - translate_off, 1 s: 15.0

    A change that lowers a count lowers its ceiling here.
    """
    ceilings = {"exp_a_kff": (2.0, 61.81), "exp_b_ifb": (1.0, 65.18), "translate_ifb": (1.0, 19.0),
                "translate_off": (1.0, 15.0)}
    package = os.path.dirname(simulator.__file__) + os.sep

    def calls(name, duration):
        model, script, settings = shipped(name)
        n = 0

        def profile(frame, event, arg):
            nonlocal n
            n += event == "call" and frame.f_code.co_filename.startswith(package)

        sys.setprofile(profile)
        try:
            log = run_experiment(model, script, replace(settings, duration=duration))
        finally:
            sys.setprofile(None)
        return n, log.n_rows()

    per_tick = {}
    for name, (duration, _) in ceilings.items():
        (full, rows_full), (half, rows_half) = calls(name, duration), calls(name, duration / 2)
        per_tick[name] = (full - half) / (rows_full - rows_half)
    assert all(per_tick[name] <= ceiling for name, (_, ceiling) in ceilings.items()), per_tick


def test_benchmark_timed_functions_are_called(monkeypatch):
    # perfbench's traced run reports `<module>.<function>.us_per_call` for
    # each such name BENCHMARK.json lists, and a function no run called has
    # no value to report.  Short runs of each benchmark workload's configs
    # must call every listed function at least once at its gazestab
    # bindings, the names the benchmark's tracer wraps.
    import gazestab.stereo

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = [m["name"].rsplit(".", 1)[0] for m in json.load(fh)["per_layer"] if m["name"].endswith(".us_per_call")]
    assert listed
    counts = dict.fromkeys(listed, 0)
    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "gazestab"]
    for label in listed:
        layer, func = label.split(".")
        real = getattr(importlib.import_module(f"gazestab.{layer}"), func)

        def counted(*args, _label=label, _real=real, **kw):
            counts[_label] += 1
            return _real(*args, **kw)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counted)
    workloads = {
        "sweep-kff": ("exp_a_kff",),
        "shake-ifb": ("exp_b_ifb",),
        "translate-set": ("translate_off", "translate_kff", "translate_ifb"),
    }
    for workload, configs in workloads.items():
        counts.update(dict.fromkeys(listed, 0))
        for name in configs:
            monkeypatch.setattr(gazestab.stereo, "_last_head_pass", (None, b"", None))
            model, script, settings = shipped(name)
            run_experiment(model, script, replace(settings, duration=0.2))
        assert all(counts.values()), (workload, counts)


def test_loop_builds_per_chain_structure_once(monkeypatch):
    # The head layout and the chain's path table are built per chain, not
    # per tick, compensate runs once per (head state, estimate) and inverts
    # both of its blocks in one call.
    import gazestab.stabilizer
    import gazestab.stereo

    counts = dict.fromkeys(("head_layout", "path_indices", "compensate", "pinv_damped"), 0)

    def counter(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kw):
            counts[name] += 1
            return real(*args, **kw)

        monkeypatch.setattr(owner, name, counted)

    counter(gazestab.stereo, "head_layout")
    counter(KinematicChain, "path_indices")
    counter(simulator, "compensate")
    counter(gazestab.stabilizer, "pinv_damped")
    model, script, settings = shipped("exp_a_kff")
    log = run_experiment(model, script, replace(settings, duration=0.5))
    assert counts["head_layout"] <= 1
    assert counts["path_indices"] == 0
    assert counts["compensate"] == state_runs(log)[1] == 1
    assert counts["pinv_damped"] == counts["compensate"]


def test_loop_reads_the_one_head_model(monkeypatch):
    # Once the inputs are built, a run constructs no chain and no head model.
    model, script, settings = shipped("exp_a_kff")
    built = []
    for cls in (KinematicChain, HeadModel):

        def counted(self, _real=cls.__post_init__):
            built.append(type(self).__name__)
            _real(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    run_experiment(model, script, replace(settings, duration=0.5))
    assert built == []


def test_tick_cap_rejected_before_realize(monkeypatch):
    def realize(*args, **kw):
        raise AssertionError("the track was realized")

    monkeypatch.setattr(DisturbanceScript, "realize", realize)
    # no duration set: the run lasts the script plus a 0.5 s settle
    script = DisturbanceScript("long", segments=(ScriptSegment(0.0, (MAX_TICKS + 1) * DT - 0.5, "torso-yaw", 1e-3),))
    with pytest.raises(InvalidInput, match=f"{MAX_TICKS + 1} ticks, over the cap of {MAX_TICKS}"):
        run_experiment(MODEL, script, SimSettings(gyro_sigma=0.0))


def test_coverage_loss_carries_completed_rows():
    # Lifting the passive head 10 m/s leaves 9 cloud points in view at
    # t = 0.82 s: the partial log holds rows 0..81, not the failing tick's.
    script = DisturbanceScript("lift", segments=(ScriptSegment(0.2, 3.0, "base-z", 10.0),))
    with pytest.raises(InsufficientCoverage, match="at t=0.820s") as exc:
        run_experiment(MODEL, script, SimSettings(control=StabilizerConfig(mode="off")))
    log = exc.value.partial_log
    assert log.n_rows() == 82
    assert np.allclose(log.t, np.arange(82) * DT)
    assert np.all(log.n_valid[1:] >= 10)


def test_summarize_rejects_a_log_with_no_completed_tick():
    # A 1000 m/s lift loses the cloud on the first tick: the partial log holds
    # only the initial row, which has no flow to average.
    script = DisturbanceScript("lift", segments=(ScriptSegment(0.0, 1.0, "base-z", 1000.0),))
    with pytest.raises(InsufficientCoverage) as exc:
        run_experiment(MODEL, script, SimSettings(control=StabilizerConfig(mode="off")))
    log = exc.value.partial_log
    assert log.n_rows() == 1
    for baseline in (None, log):
        with pytest.raises(InvalidComparison, match="no completed tick to summarize: the log has 1 row"):
            summarize(log, baseline=baseline)


# ------------------------------------------------------- the paper's claims


@st.composite
def short_scripts(draw, channels, external=st.booleans()):
    """(script, duration) of a 0.3-0.5 s run: one constant-rate segment on
    each of 1-3 distinct channels, at rates that keep the torso inside its
    limits and the cloud in view."""
    duration = draw(st.floats(0.3, 0.5))
    segments = []
    for ch in draw(st.lists(st.sampled_from(channels), min_size=1, max_size=3, unique=True)):
        t0 = draw(st.floats(0.0, duration - 0.1))
        t1 = draw(st.floats(t0 + 0.05, duration))
        limit = 0.2 if ch.startswith("base") else 0.6  # m/s or rad/s
        segments.append(ScriptSegment(t0, t1, ch, draw(st.floats(-limit, limit)), external=draw(external)))
    return DisturbanceScript("random", segments=tuple(segments)), duration


# Scripted torso and base channels stop with their segments; a scripted neck
# joint would coast on through the plant lag.
TORSO_AND_BASE = MODEL.trunk_names[:3] + ("base-x", "base-y", "base-z")


@settings(max_examples=16, deadline=None)
@given(mode=st.sampled_from(["kff", "ifb"]), case=short_scripts(TORSO_AND_BASE))
def test_eyes_alone_leave_the_disturbance_rotation(mode, case):
    # Neck DoF are crucial: eye columns carry no rotation, so with dof eyes
    # each logged residual omega is the disturbance's, J_k @ track.qdot[k].
    script, duration = case
    control = StabilizerConfig(mode=mode, dof_set="eyes")
    log = run_experiment(MODEL, script, SimSettings(control=control, duration=duration, gyro_sigma=0.0))
    track = script.realize(MODEL, DT, log.n_rows() - 1)
    for k in np.flatnonzero(~log.singular[:-1]):
        disturbance = fixation_full_jacobian(MODEL.chain, log.q[k]) @ track.qdot[k]
        assert np.all(log.true_twist[k + 1, 3:] == disturbance[3:]), k  # ==: signed zeros differ in bytes


@settings(max_examples=16, deadline=None)
@given(case=short_scripts(TORSO_AND_BASE, external=st.just(False)))
def test_kff_anticipates_commanded_motion(case):
    # With every segment commanded, kFF's logged estimate is the disturbance
    # twist d_k = J_k @ track.qdot[k] + base_vel[k], bit for bit: the loop's
    # kFF estimate is pinned to the public fixation Jacobian.
    script, duration = case
    log = run_experiment(MODEL, script, SimSettings(control=StabilizerConfig(mode="kff"), duration=duration))
    track = script.realize(MODEL, DT, log.n_rows() - 1)
    for k in np.flatnonzero(~log.singular[:-1]):
        d = fixation_full_jacobian(MODEL.chain, log.q[k]) @ track.qdot[k]
        d[:3] += track.base_vel[k]
        assert log.est_twist[k + 1].tobytes() == d.tobytes(), k


@settings(max_examples=24, deadline=None)
@given(case=short_scripts(TORSO_AND_BASE, external=st.just(True)))
def test_kff_cannot_see_external_motion(case):
    # kFF reads only commanded rates: an all-external script gives it nothing.
    script, duration = case
    log = run_experiment(MODEL, script, SimSettings(control=StabilizerConfig(mode="kff"), duration=duration))
    assert np.all(log.est_twist == 0.0)


@settings(max_examples=30, deadline=None)
@given(case=short_scripts(("base-x", "base-y", "base-z")), delay=st.integers(0, 60))
def test_ifb_cannot_see_translation(case, delay):
    # The gyro measures rotation only, so a base-only run gives iFB nothing.
    script, duration = case
    sim = SimSettings(control=StabilizerConfig(mode="ifb"), duration=duration, gyro_sigma=0.0, gyro_delay_ticks=delay)
    assert np.all(run_experiment(MODEL, script, sim).est_twist == 0.0)


@settings(max_examples=16, deadline=None)
@given(
    mode=st.sampled_from(["kff", "ifb"]),
    case=short_scripts(TORSO_AND_BASE),
    ideal=st.booleans(),
    noise=st.booleans(),
)
def test_held_still_head_logs_what_a_fresh_compensation_gives(mode, case, ideal, noise):
    # The command depends only on the posture's fixation Jacobian and the
    # estimate, so the loop may keep both while they repeat.  On every
    # non-singular tick the logged command and saturation flag equal, bit
    # for bit, compensate on the logged estimate and a fresh J at the
    # logged q, and the logged residual twist is that J applied to the
    # executed rates plus the base velocity.  An ideal plant stops the head
    # as soon as its segments end, so runs mix still and moving stretches.
    script, duration = case
    control = StabilizerConfig(mode=mode)
    sim = SimSettings(
        control=control, plant=PlantParams(0.0, 0.0) if ideal else PlantParams(), duration=duration,
        gyro_sigma=0.005 if noise else 0.0,
    )
    log = run_experiment(MODEL, script, sim)
    track = script.realize(MODEL, DT, log.n_rows() - 1)
    for k in np.flatnonzero(~log.singular[:-1]):
        J = fixation_full_jacobian(MODEL.chain, log.q[k])
        est = log.est_twist[k + 1]
        cmd = compensate(Twist(est[:3], est[3:]), J, control)
        assert log.cmd[k + 1].tobytes() == np.concatenate([cmd.qdot_neck, cmd.qdot_eye]).tobytes(), k
        assert log.saturated[k + 1] == cmd.saturated, k
        true = J @ log.qdot[k + 1]
        true[:3] += track.base_vel[k]
        assert log.true_twist[k + 1].tobytes() == true.tobytes(), k


@settings(max_examples=10, deadline=None)
@given(mode=st.sampled_from(["off", "kff", "ifb"]), case=short_scripts(TORSO_AND_BASE), ideal=st.booleans())
def test_runs_repeat_their_bytes_and_round_trip_through_the_log(tmp_path_factory, mode, case, ideal):
    # Settings + seed give the same CSV bytes twice, and read_log_csv returns
    # each written array byte for byte (signed zeros count), its metadata
    # and its segments.
    script, duration = case
    sim = SimSettings(
        control=StabilizerConfig(mode=mode), plant=PlantParams(0.0, 0.0) if ideal else PlantParams(), duration=duration
    )
    paths = [str(tmp_path_factory.mktemp("log") / "run.csv") for _ in range(2)]
    for path in paths:
        log = run_experiment(MODEL, script, sim)
        write_log_csv(log, path)
    texts = []
    for path in paths:
        with open(path, "rb") as fh:
            texts.append(fh.read())
    assert texts[0] == texts[1]
    back = read_log_csv(paths[1])
    for name, _, _ in simulator.LOG_COLUMNS:
        want, got = getattr(log, name), getattr(back, name)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
    assert back.meta == log.meta and tuple(back.segments) == log.segments
