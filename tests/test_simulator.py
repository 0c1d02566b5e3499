import importlib
import json
import math
import os
import subprocess
import sys
import time
import warnings
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gazestab.chain import KinematicChain, Pose
from gazestab.errors import (
    InsufficientCoverage,
    InvalidComparison,
    InvalidInput,
    JointLimitWarning,
    SimulationDiverged,
    SingularConfiguration,
)
from gazestab.fileio import (
    default_data_dir,
    parse_model_file,
    parse_run_config,
    parse_script_file,
    read_log_csv,
    write_log_csv,
)
from gazestab.models import BASE_CHANNELS, HeadModel, default_head_model
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
from gazestab.stabilizer import (
    ImuSample,
    StabilizerCommand,
    StabilizerConfig,
    Twist,
    compensate,
    estimate_ifb,
    estimate_kff,
)
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


def test_float32_tau_steps_as_its_float64_value():
    # PlantParams stores float(tau): kept as a numpy float32, tau would run
    # the lag gain in float32 (dt / tau = 0.125, not 0.12500000279396778)
    tau = np.float32(0.08)
    assert type(PlantParams(tau, tau).tau_neck) is float
    cmd = make_cmd(neck=(1.0, -0.5, 0.25), eye=(0.5, 1.0, -0.2))
    a, b = (step(MODEL, rest_state(), np.zeros(9), cmd, DT, PlantParams(t, t)) for t in (tau, float(tau)))
    assert a.qdot.tobytes() == b.qdot.tobytes() and a.q.tobytes() == b.q.tobytes()


def test_float32_dt_steps_as_its_float64_value():
    # step takes float(dt), as SimSettings stores it: kept as a numpy float32,
    # dt would make t a float32 (state.t + dt follows numpy's scalar promotion)
    dt = np.float32(0.01)
    cmd = make_cmd(neck=(1.0, -0.5, 0.25), eye=(0.5, 1.0, -0.2))
    a, b = (step(MODEL, rest_state(), np.zeros(9), cmd, d, base_vel=[0.3, -0.2, 0.1]) for d in (dt, float(dt)))
    assert type(a.t) is float and a.t == b.t
    assert all(getattr(a, n).tobytes() == getattr(b, n).tobytes() for n in ("q", "qdot", "base_offset"))


@pytest.mark.parametrize("base_vel", [[1.0, 2.0], [math.nan, 0.0, 0.0], [0.0, math.inf, 0.0], np.zeros((1, 3))])
def test_step_rejects_bad_base_vel(base_vel):
    with pytest.raises(InvalidInput, match="base_vel must be a finite 3-vector"):
        step(MODEL, rest_state(), np.zeros(9), None, DT, base_vel=base_vel)


def test_step_state_arrays_are_disjoint_and_new():
    # the new q, qdot and base_offset are views of one array: writing into
    # one changes neither the others nor the state it was stepped from
    cmd = make_cmd(neck=(0.1, -0.2, 0.3), eye=(0.05, 0.1, -0.1))
    old = PlantState(t=0.0, q=np.full(9, 0.1), qdot=np.full(9, -0.2), base_offset=[0.5, 0.6, 0.7])
    new = step(MODEL, old, np.ones(9), cmd, DT, active=np.arange(9) < 2, base_vel=[0.1, 0.2, 0.3])
    arrays = [new.q, new.qdot, new.base_offset, old.q, old.qdot, old.base_offset]
    for i, a in enumerate(arrays[:3]):
        assert not any(np.shares_memory(a, b) for b in arrays if b is not a)
        before = [b.tobytes() for b in arrays]
        a[:] = 7.0
        assert [b.tobytes() for j, b in enumerate(arrays) if j != i] == before[:i] + before[i + 1:]


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
    dt = float(dt)
    act = np.zeros(9, dtype=bool) if active is None else np.asarray(active, dtype=bool)
    vel = np.zeros(3) if base_vel is None else np.asarray(base_vel, dtype=float)
    setpoint = np.zeros(9)
    if command is not None:
        setpoint[3:6], setpoint[6:9] = command.qdot_neck, command.qdot_eye
    # explicit-Euler lag gains, clamped so tau <= dt snaps to the setpoint
    g_neck = min(dt / params.tau_neck, 1.0) if params.tau_neck > 0.0 else 1.0
    g_eye = min(dt / params.tau_eye, 1.0) if params.tau_eye > 0.0 else 1.0
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
        uv, ok = simulator._project(cam, fr.rot_left, fr.o_left, cloud_t)
        want = row_project(cam, fr.rot_left, fr.o_left, cloud)
        assert [a.tobytes() for a in (uv[0], uv[1], ok)] == [a.tobytes() for a in want]
        behind += np.count_nonzero((cloud - fr.o_left) @ fr.rot_left[:, 2] <= 1e-9)
    assert behind > 0


def test_each_camera_projects_with_its_own_pixel_box():
    # _project reads a pixel centre and interior bounds cached on the camera:
    # a camera made from another by replace has its own, and the first keeps its
    rng = np.random.default_rng(5)
    cloud = rng.normal([6.0, 0.0, 0.0], 2.0, (900, 3))
    cloud_t = np.ascontiguousarray(cloud.T)
    fr = camera_frames(MODEL.chain, rng.uniform(-0.3, 0.3, 9))
    cam = CameraModel()
    cams = [cam, replace(cam, border=60), replace(cam, f=120.0), replace(cam, width=400, height=200, border=5), cam]
    for c in cams:
        uv, ok = simulator._project(c, fr.rot_left, fr.o_left, cloud_t)
        want = row_project(c, fr.rot_left, fr.o_left, cloud)
        assert [a.tobytes() for a in (uv[0], uv[1], ok)] == [a.tobytes() for a in want]
    counts = [np.count_nonzero(simulator._project(c, fr.rot_left, fr.o_left, cloud_t)[1]) for c in cams]
    assert len(set(counts[:4])) == 4, counts


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


@pytest.mark.parametrize("n", [600.0, np.float64(600), True, "600", math.nan], ids=repr)
def test_cloud_size_must_be_an_integer(n):
    # make_cloud draws n samples: numpy would reject a float count with a bare TypeError
    with pytest.raises(InvalidInput, match="cloud must contain 500 to"):
        CloudSpec(n=n)


def test_cloud_size_accepts_numpy_integers():
    assert make_cloud(CloudSpec(n=np.int64(600)), np.zeros(3)).shape == (600, 3)


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


def masked_track(script, dt, n_ticks):
    """realize's five arrays built as its rule reads, one boolean mask over
    the whole grid per segment: the ticks t with t_start - 1e-12 <= t < t_end - 1e-12."""
    names = MODEL.dof_names + ("base-x", "base-y", "base-z")
    rates, commanded = np.zeros((n_ticks, 12)), np.zeros((n_ticks, 12))
    active = np.zeros((n_ticks, 9), dtype=bool)
    t = np.arange(n_ticks) * dt

    def add(mask, channel, series, external):
        col = names.index(channel)
        rates[mask, col] += series
        if col < 9:
            active[mask, col] = True
        if not external:
            commanded[mask, col] += series

    for seg in script.segments:
        add((t >= seg.t_start - 1e-12) & (t < seg.t_end - 1e-12), seg.channel, seg.rate, seg.external)
    for seg in script.noise:
        mask = (t >= seg.t_start - 1e-12) & (t < seg.t_end - 1e-12)
        rng = np.random.default_rng(seg.seed)
        a = math.exp(-2.0 * math.pi * seg.bandwidth * dt)
        drive = seg.amplitude * math.sqrt(max(1.0 - a * a, 0.0))
        for ch in seg.channels:
            x, series = 0.0, []
            for eta in rng.normal(size=int(mask.sum())):
                x = a * x + drive * eta
                series.append(x)
            add(mask, ch, np.array(series), seg.external)
    return rates[:, :9], rates[:, 9:], active, commanded[:, :9], commanded[:, 9:]


# Edge offsets from a tick: on it, 1e-12 or half that to either side.
TICK_OFFSETS = (0.0, 1e-12, -1e-12, 5e-13, -5e-13)


@st.composite
def tick_edge_scripts(draw):
    """(script, dt, n_ticks): back-to-back moves and noise lines on a few
    channels, each edge on a tick of the dt grid or within 1e-12 of one."""
    dt = draw(st.sampled_from([0.01, 0.003, 0.1, 1 / 3]))
    n_ticks = draw(st.integers(1, 40))
    names = MODEL.dof_names + ("base-x", "base-y", "base-z")
    channels = draw(st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True))
    moves, noise = [], []
    for ch in channels:
        ticks = st.tuples(st.integers(0, n_ticks + 2), st.sampled_from(TICK_OFFSETS))
        times = sorted({k * dt + off for k, off in draw(st.lists(ticks, min_size=2, max_size=6))} - {-1e-12, -5e-13})
        for t0, t1 in zip(times, times[1:]):
            if draw(st.booleans()):
                moves.append(ScriptSegment(t0, t1, ch, draw(st.floats(-2.0, 2.0)), external=draw(st.booleans())))
            else:
                seed, external = draw(st.integers(0, 9)), draw(st.booleans())
                noise.append(NoiseSegment(t0, t1, (ch,), 0.1, 2.0, seed, external=external))
    return DisturbanceScript("edges", tuple(moves), tuple(noise)), dt, n_ticks


@settings(max_examples=60, deadline=None)
@given(case=tick_edge_scripts())
def test_realize_rows_match_a_mask_per_segment(case):
    # realize finds each segment's rows on the sorted grid; a full-grid mask
    # per segment picks the same rows, so every array matches bit for bit
    script, dt, n_ticks = case
    track = script.realize(MODEL, dt, n_ticks)
    got = (track.qdot, track.base_vel, track.active, track.commanded_qdot, track.commanded_base)
    for a, b in zip(got, masked_track(script, dt, n_ticks)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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


def run_leaving_the_band(mode):
    """A 0.4 s torso yaw fixating 10 km away: the optical axes start parallel
    to within the singular band, and verging the eyes takes them out of it."""
    script = DisturbanceScript(
        "leave",
        segments=(ScriptSegment(0.0, 0.4, "torso-yaw", 0.35), ScriptSegment(0.05, 0.3, "eye-vergence", 0.02)),
    )
    return run_experiment(MODEL, script, SimSettings(control=StabilizerConfig(mode=mode), fixation_distance=1e4, duration=0.4))


@pytest.mark.parametrize("mode", ["off", "kff", "ifb"])
def test_singular_flag_marks_the_tick_that_leaves_the_band(mode):
    # A row is singular when its state has parallel axes or the tick that
    # ended there began at such a state: that tick had no fixation Jacobian
    # and held its command.
    log = run_leaving_the_band(mode)
    parallel = []
    for q in log.q:
        try:
            fixation_point(camera_frames(MODEL.chain, q))
        except SingularConfiguration:
            parallel.append(True)
        else:
            parallel.append(False)
    assert sum(parallel) == 6 and not parallel[-1]
    assert log.singular.tolist() == [parallel[0]] + [a or b for a, b in zip(parallel[1:], parallel)]
    for row in range(1, log.n_rows()):
        if parallel[row - 1]:
            assert np.array_equal(log.cmd[row], log.cmd[row - 1]), row


def test_summary_residuals_skip_singular_rows():
    # A singular row has no true twist, and the zeros its cells hold are not
    # a perfect stabilization.  2 s of exp_a_off at 10 km is singular on every
    # row: no residual to average, though the head moves and the image flows.
    model, script, settings = shipped("exp_a_off")
    log = run_experiment(model, script, replace(settings, fixation_distance=1e4, duration=2.0))
    assert np.all(log.singular)
    s = summarize(log)
    assert math.isnan(s.mean_residual_speed) and math.isnan(s.mean_residual_omega)
    assert s.mean_optfl > 0.1
    # a run that leaves the band averages the rows after it
    log = run_leaving_the_band("off")
    assert 0 < np.count_nonzero(log.singular[1:]) < log.n_rows() - 1
    s, kept = summarize(log), log.true_twist[1:][~log.singular[1:]]
    assert s.mean_residual_speed == float(np.mean(np.linalg.norm(kept[:, :3], axis=1))) > 0.0
    assert s.mean_residual_omega == float(np.mean(np.linalg.norm(kept[:, 3:], axis=1))) > 0.0


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


def shipped_run(name, **overrides):
    model, script, settings = shipped(name)
    return model, script, replace(settings, **overrides)


def neck_flick():
    """A 0.1 s scripted neck yaw, iFB on an ideal plant with the gyro samples
    held back 20 ticks: the head stops the tick after the IMU last turned,
    and holds still until the samples come out."""
    script = DisturbanceScript("flick", segments=(ScriptSegment(0.0, 0.1, "neck-yaw", 0.5),))
    control = StabilizerConfig(mode="ifb")
    settings = SimSettings(control=control, plant=PlantParams(0.0, 0.0), duration=0.4, gyro_delay_ticks=20, gyro_sigma=0.0)
    return MODEL, script, settings


@pytest.mark.parametrize(
    ("build", "pattern"),
    [
        # exp_b_ifb's torso noise with its gyro noise, ids by gyro delay
        pytest.param(lambda: shipped_run("exp_b_ifb", duration=1.0), "s" + "m" * 99, id="0"),
        pytest.param(lambda: shipped_run("exp_b_ifb", duration=1.0, gyro_delay_ticks=3), "s" * 4 + "m" * 96, id="3"),
        # a still head, so a still IMU: every tick from the third on reuses the gyro rate
        pytest.param(lambda: shipped_run("translate_ifb", duration=1.0), "s" * 100, id="translate_ifb"),
        # gyro noise drives the neck: the head moves from the second tick on
        pytest.param(
            lambda: shipped_run("translate_ifb", duration=1.0, gyro_sigma=0.005), "s" + "m" * 99, id="translate_ifb-noise"
        ),
        # still until the torso yaw starts at 1 s, then moving
        pytest.param(lambda: shipped_run("exp_a_ifb", duration=1.5), "s" * 100 + "m" * 50, id="exp_a_ifb"),
        # the first still tick after the flick must not reuse the rate of the
        # tick before, when the IMU turned
        pytest.param(neck_flick, "m" * 10 + "s" * 11 + "m" * 11 + "s" * 8, id="neck-flick"),
    ],
)
def test_ifb_estimates_match_the_public_gyro_route(build, pattern):
    # Each logged iFB estimate equals, bit for bit, the one built through the
    # public functions from the logged states: synth_gyro on the run's gyro
    # rng, less the efference copy of the neck's own executed rates, delayed
    # by gyro_delay_ticks, then estimate_ifb at the state's fixation point.
    # The pattern marks each tick still (s: its end state repeats its start
    # state's q bytes) or moving (m): the loop reuses its gyro rate on the
    # second still tick of a run of them.
    model, script, settings = build()
    delay = settings.gyro_delay_ticks
    log = run_experiment(model, script, settings)
    assert not log.singular.any()
    assert "".join("s" if a.tobytes() == b.tobytes() else "m" for a, b in zip(log.q, log.q[1:])) == pattern
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
    # (step checks its new state's floats with math.isfinite, as do
    # as_joint_array at its given length, _finite3 and compensate theirs:
    # np.isfinite ran 6.3 times per tick before they did).
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
    assert after["isfinite"] / after["ticks"] <= 1.67
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
    lever arm formed on floats (no _cross_rows call), then by one loop body
    per plant state (no closure call to read a state) and a kFF estimate
    the loop writes as J @ rates (no kernel call), then by a still head
    that keeps its head record, IMU pose and noise-free gyro rate while q
    repeats (no _head_pass, as_joint_array, _imu_world, gyro-rate or
    _so3_log call), then by a step that checks dt through chain._real and
    forms its lag gains inline (one call where _tracking_gain made two; a
    computed command's pinv_damped makes one more), then by a compensate
    that clips and checks its command on floats and builds it unchecked
    (no StabilizerCommand check and its two _finite3 calls), then by a head
    pass that takes its camera frames off its own link-frame stack (no
    forward_kinematics, Pose.from_matrix, _unchecked, _readonly, _path or
    as_joint_array call: 14 per moving state), a link_frames that forms its
    DH stack inline (no _dh_closed_form call) and a fixation Jacobian whose
    elementwise tail runs in plain loops (no nested quotient function, two
    calls):

    - exp_a_kff, 2 s (the first torso-yaw sweep, 1-2 s): 40.83
    - exp_b_ifb, 1 s (torso noise from 0.5 s): 45.0
    - translate_ifb, 1 s (base-y motion from 0.5 s): 12.0
    - translate_off, 1 s: 11.0

    The translate configs compute no head pass after row 0, so their counts
    stay.  A change that lowers a count lowers its ceiling here.
    """
    ceilings = {"exp_a_kff": (2.0, 40.83), "exp_b_ifb": (1.0, 45.0), "translate_ifb": (1.0, 12.0),
                "translate_off": (1.0, 11.0)}
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


def synthetic_log(n_rows, segments, seed=0):
    """A TrajectoryLog of n_rows ticks at 0.01 s with seeded flow and the
    given (label, t0, t1) segments; every other column zero."""
    log = simulator.TrajectoryLog(
        meta=dict(script="synthetic", dt=0.01), segments=tuple(segments),
        **{name: np.zeros((n_rows, len(cols)) if len(cols) > 1 else n_rows, dtype)
           for name, cols, dtype in simulator.LOG_COLUMNS},
    )
    log.t[:] = np.arange(n_rows) * 0.01
    log.optfl[:] = np.random.default_rng(seed).exponential(size=n_rows)
    return log


def mask_owned(grid, t_start, t_end):
    """realize's rule as a mask over the whole grid, in place of
    simulator._owned's row range: the reference."""
    return (grid >= t_start - 1e-12) & (grid < t_end - 1e-12)


def test_summarize_segment_means_match_the_mask_form_in_less_time(monkeypatch):
    # 2,000 segments over 20,001 rows: 1,000 back-to-back of 0.1 s, edges on
    # ticks, and 1,000 of 0.07 s with edges 1e-12 above a tick (where t0 -
    # 1e-12 may round onto the tick itself); plus empty ones: an instant, one
    # past the end and one before t = 0.
    grid = np.arange(20_000) * 0.01
    segments = [("s", k * 0.1, (k + 1) * 0.1) for k in range(1000)]
    segments += [("above", grid[k] + 1e-12, grid[k + 7] + 1e-12) for k in range(10_000, 20_000, 10)]
    segments += [("empty", 5.0, 5.0), ("after", 300.0, 310.0), ("before", -2.0, -1.0)]
    assert sum(t0 - 1e-12 in grid for _, t0, _ in segments) > 100
    log, baseline = synthetic_log(20_001, segments), synthetic_log(20_001, segments, seed=1)

    def timed():
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            summary = summarize(log, baseline)
            best = min(best, time.perf_counter() - start)
        return summary, best

    ranged, ranged_s = timed()
    monkeypatch.setattr(simulator, "_owned", mask_owned)
    masked, masked_s = timed()

    def rows(summary):
        return [(s.label, s.t_start, s.t_end, np.float64(s.mean_optfl).tobytes(), s.reduction_pct)
                for s in summary.segments]

    assert rows(ranged) == rows(masked)
    assert [math.isnan(s.mean_optfl) for s in ranged.segments[-3:]] == [True] * 3
    assert ranged_s < masked_s, (ranged_s, masked_s)


def test_summarize_segments_cover_the_ticks_realize_drives_whatever_t_reads():
    # The plant's t is a running sum of dt: at dt 0.01 it strays past 1e-12
    # from k * dt at tick 2432 and reads 25.00000000000111 at tick 2500.
    # Each segment's mean covers the rows logging the ticks realize drives
    # (row k + 1 logs tick k), bit for bit.
    script = DisturbanceScript(
        "drift", segments=(ScriptSegment(0.0, 25.0, "torso-yaw", 0.1), ScriptSegment(25.0, 30.0, "torso-pitch", 0.1))
    )
    log = synthetic_log(3001, script.span_list())
    for row in range(1, 3001):
        log.t[row] = log.t[row - 1] + 0.01  # as step advances a state's t
    log.optfl[:] = np.arange(3001.0)
    assert log.t[2500] == 25.00000000000111
    track = script.realize(MODEL, 0.01, 3000)
    means = [s.mean_optfl for s in summarize(log).segments]
    driven = [np.mean(log.optfl[1:][track.active[:, col]]) for col in (0, 1)]
    assert np.array(means).tobytes() == np.array(driven).tobytes()
    assert means == [1250.5, 2750.5]


def test_summarize_segment_off_the_grid_covers_the_ticks_realize_drives():
    # A move over t=0.005,0.995 at dt 0.01 drives ticks 1..99, which rows
    # 2..100 log.
    script = DisturbanceScript("off-grid", segments=(ScriptSegment(0.005, 0.995, "torso-yaw", 0.3),))
    log = run_experiment(MODEL, script, SimSettings(control=StabilizerConfig(mode="off"), duration=1.1))
    track = script.realize(MODEL, DT, log.n_rows() - 1)
    assert np.flatnonzero(track.active[:, 0]).tolist() == list(range(1, 100))
    (segment,) = summarize(log).segments
    assert np.float64(segment.mean_optfl).tobytes() == np.mean(log.optfl[2:101]).tobytes()


def test_reductions_against_a_zero_flow_baseline_are_none():
    # One formula: no reduction, whole run or segment, without a positive
    # finite baseline flow (the whole run's used to read 0.0).
    segments = [("a", 0.0, 0.2), ("b", 0.2, 0.49)]
    run, baseline = synthetic_log(50, segments), synthetic_log(50, segments)
    run.optfl[1:], baseline.optfl[:] = 0.5, 0.0
    summary = summarize(run, baseline)
    assert summary.reduction_pct is None
    assert [s.reduction_pct for s in summary.segments] == [None, None]
    assert [s.reduction_pct for s in summarize(baseline, run).segments] == [100.0, 100.0]


@pytest.mark.parametrize("dt", [None, math.nan, 0.0, -0.01, math.inf, "0.01"])
def test_summarize_needs_the_log_dt(dt):
    # A segment's rows are ticks of the log's dt grid: a log without a
    # positive finite dt has none.
    log = synthetic_log(50, [("s", 0.0, 0.2)])
    if dt is None:
        del log.meta["dt"]
    else:
        log.meta["dt"] = dt
    with pytest.raises(InvalidComparison, match="^the log's dt must "):
        summarize(log)


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


def run_or_partial(script, sim, model=MODEL):
    """(log, error): the run's log, or a failed run's partial log and its error."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", JointLimitWarning)
        try:
            return run_experiment(model, script, sim), None
        except (InsufficientCoverage, SimulationDiverged) as err:
            return err.partial_log, err


@settings(max_examples=10, deadline=None)
@given(
    mode=st.sampled_from(["off", "kff", "ifb"]),
    case=short_scripts(TORSO_AND_BASE),
    exponent=st.integers(0, 2**32 - 1).map(lambda seed: np.random.default_rng(seed).uniform(-1.0, 5.0)),
)
@example(mode="kff", case=(DisturbanceScript("yaw", (ScriptSegment(0.0, 0.3, "torso-yaw", 0.6),)), 0.3), exponent=-1.0)
@example(mode="ifb", case=(DisturbanceScript("yaw", (ScriptSegment(0.0, 0.3, "torso-yaw", 0.6),)), 0.3), exponent=5.0)
def test_hostile_fixation_distances_end_cleanly(mode, case, exponent):
    # Fixation distances drawn log-uniformly from 0.1 m (the eyes verge past
    # their limits) to 100 km (the axes all but parallel) end in a finite log,
    # or in InsufficientCoverage or SimulationDiverged with a finite partial
    # log of the completed rows.
    script, duration = case
    sim = SimSettings(control=StabilizerConfig(mode=mode), duration=duration, fixation_distance=10.0**exponent)
    log, err = run_or_partial(script, sim)
    assert 1 <= log.n_rows() <= round(duration / DT) + 1
    assert err is None or log.n_rows() <= round(duration / DT)
    for name, _, dtype in simulator.LOG_COLUMNS:
        assert dtype is not float or np.isfinite(getattr(log, name)).all(), name


# ------------------------------------------------------------ the view cone


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def rodrigues(axis, angle):
    k = axis / np.linalg.norm(axis)
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * K @ K


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    f=st.sampled_from([1.0, 3.0, 40.0, 240.0, 480.0]),
    margin=st.floats(0.05, 1.0),
    share=st.floats(0.0, 1.0),
)
def test_view_cone_certificate_is_sound(seed, f, margin, share):
    # A camera whose axis turned by a and whose origin moved by s since the
    # cone's pose, with a + asin(s / d_min) + 1e-6 <= margin, sees no
    # left-out column inside the image interior.  Each pose here spends the
    # whole angle budget against one left-out column: its axis turns toward
    # the column by a share of it and its origin moves across the column's
    # line of sight, toward the axis, by the rest.
    rng = np.random.default_rng(seed)
    cam = CameraModel(f=f)
    cloud_t = np.ascontiguousarray(rng.normal(0.0, 3.0, (3, 600)))
    rot0, o0 = random_rotation(rng), rng.normal(0.0, 0.5, 3)
    got_margin, d_min, cols = simulator._cone(cam, cloud_t, rot0, o0, margin)
    assert cols.flags.c_contiguous
    left_out = ~np.isin(cloud_t[0], cols[0])
    assert np.array_equal(cloud_t[:, ~left_out], cols)
    if got_margin == math.inf:  # the cone holds the whole cloud
        assert cols is cloud_t
        return
    assert got_margin == margin and d_min == pytest.approx(np.linalg.norm(cloud_t - o0[:, None], axis=0).min())
    z0, budget = rot0[:, 2], margin - 1e-6
    for p in cloud_t[:, left_out].T[:20]:
        a = share * budget
        rot = rodrigues(np.cross(z0, p - o0), a) @ rot0
        u = (p - o0) / np.linalg.norm(p - o0)
        w = z0 - (z0 @ u) * u
        o = o0 + d_min * math.sin(budget - a) * w / np.linalg.norm(w)
        assert not simulator._project(cam, rot, o, cloud_t[:, left_out])[1].any()


def test_view_cone_keeps_a_cloud_too_far_to_measure():
    # a squared distance past the largest float would compare as inf
    cloud_t = np.ascontiguousarray(make_cloud(CloudSpec(), np.zeros(3)).T * 1e160)
    margin, d_min, cols = simulator._cone(CameraModel(), cloud_t, np.eye(3), np.zeros(3), 0.05)
    assert margin == d_min == math.inf and cols is cloud_t


# a 140 deg/s torso spin, and a cloud 0.3-1 m from the eyes
SPIN = DisturbanceScript(
    "spin", segments=(ScriptSegment(0.0, 0.3, "torso-yaw", math.radians(140.0)),
                      ScriptSegment(0.0, 0.3, "torso-pitch", -math.radians(140.0)))
)
NEAR_CLOUD = CloudSpec(r_min=0.3, r_max=1.0)


@st.composite
def cull_cases(draw):
    """(script, settings) of a 0.2-0.4 s run in any mode: constant-rate
    segments on 1-4 torso and base channels, torso at up to 140 deg/s and
    the base at up to 2 m/s, focal lengths from 1 to 2,000 px, and the
    default cloud or one 0.3-1 m from the eyes."""
    duration = draw(st.floats(0.2, 0.4))
    segments = []
    for ch in draw(st.lists(st.sampled_from(TORSO_AND_BASE), min_size=1, max_size=4, unique=True)):
        t0 = draw(st.floats(0.0, duration - 0.05))
        t1 = draw(st.floats(t0 + 0.02, duration))
        limit = 2.0 if ch.startswith("base") else min(math.radians(140.0), 0.8 / (t1 - t0))
        segments.append(ScriptSegment(t0, t1, ch, draw(st.floats(-limit, limit))))
    sim = SimSettings(
        control=StabilizerConfig(mode=draw(st.sampled_from(["off", "kff", "ifb"]))),
        cam=CameraModel(f=draw(st.sampled_from([1.0, 3.0, 40.0, 240.0, 480.0, 2000.0]))),
        cloud=draw(st.sampled_from([CloudSpec(), NEAR_CLOUD])),
        duration=duration,
    )
    return DisturbanceScript("random", segments=tuple(segments)), sim


def full_cloud_flows(sim, log):
    """(optfl, n_valid) of each logged tick recomputed over the whole cloud
    from the logged q and base offset."""
    fr = camera_frames(MODEL.chain, log.q[0])
    cloud_t = np.ascontiguousarray(make_cloud(sim.cloud, 0.5 * (fr.o_left + fr.o_right)).T)
    projs = []
    for q, b in zip(log.q, log.base_offset):
        fr = camera_frames(MODEL.chain, q)
        projs.append(simulator._project(sim.cam, fr.rot_left, fr.o_left + b, cloud_t))
    return [simulator._flow(a, b) for a, b in zip(projs, projs[1:])]


@settings(max_examples=12, deadline=None)
@given(case=cull_cases())
@example(case=(SPIN, SimSettings(control=StabilizerConfig(mode="off"), cam=CameraModel(f=240.0), duration=0.3)))
@example(case=(SPIN, SimSettings(control=StabilizerConfig(mode="kff"), cam=CameraModel(f=1.0), duration=0.3)))
@example(
    case=(
        DisturbanceScript("dash", segments=(ScriptSegment(0.05, 0.3, "base-x", 20.0),)),
        SimSettings(control=StabilizerConfig(mode="ifb"), cloud=NEAR_CLOUD, duration=0.3),
    )
)
@example(
    case=(
        DisturbanceScript("lift", segments=(ScriptSegment(0.2, 3.0, "base-z", 10.0),)),
        SimSettings(control=StabilizerConfig(mode="kff"), duration=3.0),
    )
)
def test_loop_flow_matches_the_full_cloud_oracle(case):
    # Every logged optfl and n_valid equals, bit for bit, _flow of two
    # whole-cloud projections at the logged states.  A run that loses the
    # cloud (the dash and the 10 m/s lift) fails at the tick, with the
    # message and partial log, of a loop whose cone holds every column.
    script, sim = case
    log, err = run_or_partial(script, sim)
    for k, (optfl, n_valid) in enumerate(full_cloud_flows(sim, log), 1):
        assert (log.optfl[k].tobytes(), log.n_valid[k]) == (np.float64(optfl).tobytes(), n_valid), k
    if err is not None:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_cone", lambda cam, cloud_t, rot, origin, margin: (math.inf, math.inf, cloud_t))
            full_log, full_err = run_or_partial(script, sim)
        assert (type(full_err), str(full_err)) == (type(err), str(err))
        for name, _, _ in simulator.LOG_COLUMNS:
            assert getattr(log, name).tobytes() == getattr(full_log, name).tobytes(), name


def test_translate_flow_reads_a_small_cone(monkeypatch):
    # On translate_ifb about 4% of the 1,600-point cloud is in view: at
    # least 99% of the loop's projections read at most 200 columns.
    widths = []
    real = simulator._project

    def counted(cam, rot, origin, cloud_t):
        widths.append(cloud_t.shape[1])
        return real(cam, rot, origin, cloud_t)

    monkeypatch.setattr(simulator, "_project", counted)
    model, script, settings = shipped("translate_ifb")
    assert settings.cloud.n == 1600
    log = run_experiment(model, script, settings)
    assert len(widths) >= log.n_rows()
    assert np.mean(np.array(widths) <= 200) >= 0.99, np.unique(widths, return_counts=True)


# ------------------------------------------------- the reference loop


def reference_run(model, script, settings):
    """(arrays, error): run_experiment's log columns from the paper's loop
    built from public parts, or a failed run's fully logged rows and its
    error.  Per tick: camera_frames, fixation_point and
    fixation_full_jacobian at the state, then estimate_kff plus the
    commanded base velocity, or synth_gyro less the neck's own rotation
    through the gyro delay line and estimate_ifb; compensate and step; and
    the flow of the whole cloud (_project, _flow) between the two states.
    It keeps nothing across ticks but the command, the gyro delay line and
    the previous state, and raises where the loop raises."""
    dt, cfg, cam = settings.dt, settings.control, settings.cam
    duration = settings.duration if settings.duration is not None else script.duration() + 0.5
    n_ticks = simulator._tick_count(duration, dt)
    track = script.realize(model, dt, n_ticks)
    rng = np.random.default_rng(np.random.SeedSequence((settings.seed, 71)))
    state = initial_state(model, settings.fixation_distance)
    fr = camera_frames(model.chain, state.q)
    cloud_t = np.ascontiguousarray(make_cloud(settings.cloud, 0.5 * (fr.o_left + fr.o_right)).T)
    log = {name: np.zeros((n_ticks + 1, len(cols)) if len(cols) > 1 else n_ticks + 1, dtype)
           for name, cols, dtype in simulator.LOG_COLUMNS}

    def look(state):
        """A state's fixation point in the world (None: parallel axes) and
        the whole cloud's projection in its left camera."""
        fr, b = camera_frames(model.chain, state.q), state.base_offset
        try:
            fp = fixation_point(fr).point + b
        except SingularConfiguration:
            fp = None
        return fp, simulator._project(cam, fr.rot_left, fr.o_left + b, cloud_t)

    def write(row, state, fp, singular):
        log["t"][row], log["q"][row], log["qdot"][row] = state.t, state.q, state.qdot
        log["base_offset"][row], log["singular"][row] = state.base_offset, singular
        if fp is not None:
            log["fp"][row] = fp

    cmd, prev, logged = StabilizerCommand.hold(), None, 1
    delay = min(settings.gyro_delay_ticks, n_ticks)
    gyro = deque(maxlen=delay + 1)
    fp, _ = look(state)
    write(0, state, fp, fp is None)
    try:
        for k in range(n_ticks):
            fp, proj = look(state)
            J = None if fp is None else fixation_full_jacobian(model.chain, state.q)
            if J is not None and cfg.mode == "kff":
                xi = estimate_kff(J, track.commanded_qdot[k])
                est = Twist(xi.v + track.commanded_base[k], xi.omega)
            elif J is not None and cfg.mode == "ifb":
                if prev is None:
                    sample = ImuSample(np.zeros(3), model.imu_pose(expand_head_q(state.q)).pos + state.base_offset)
                else:
                    sample = synth_gyro(model, prev, state, dt, sigma=settings.gyro_sigma, rng=rng)
                    self_qdot = np.where(track.active[k - 1][3:6], 0.0, state.qdot[3:6])
                    sample = ImuSample(sample.omega - J[3:6, 3:6] @ self_qdot, sample.position)
                if not gyro:  # until the first sample comes out: no rotation, at its position
                    gyro.extend([ImuSample(np.zeros(3), sample.position)] * delay)
                gyro.append(sample)
                est = estimate_ifb(gyro[0], fp)
            if J is not None and cfg.mode != "off":
                log["est_twist"][k + 1] = est.as_array()
                cmd = compensate(est, J, cfg)
            prev, state = state, step(
                model, state, track.qdot[k], cmd, dt, settings.plant, active=track.active[k], base_vel=track.base_vel[k]
            )
            fp_next, proj_next = look(state)
            write(k + 1, state, fp_next, fp_next is None or J is None)
            optfl, n_valid = simulator._flow(proj, proj_next)
            if n_valid < simulator.MIN_FLOW_POINTS:
                raise InsufficientCoverage(
                    f"only {n_valid} cloud points remained valid at t={state.t:.3f}s "
                    f"(need >= {simulator.MIN_FLOW_POINTS})"
                )
            if J is not None:
                log["true_twist"][k + 1] = J @ state.qdot
                log["true_twist"][k + 1, :3] += track.base_vel[k]
            log["cmd"][k + 1] = np.r_[cmd.qdot_neck, cmd.qdot_eye]
            log["optfl"][k + 1], log["n_valid"][k + 1], log["saturated"][k + 1] = optfl, n_valid, cmd.saturated
            logged = k + 2
            if not math.isfinite(optfl):
                raise SimulationDiverged("flow metric became non-finite", t=state.t)
    except (SimulationDiverged, InsufficientCoverage) as err:
        return {name: a[:logged] for name, a in log.items()}, err
    return log, None


CHANNELS = MODEL.dof_names + ("base-x", "base-y", "base-z")


@st.composite
def reference_cases(draw):
    """(script, settings) of a 0.05-0.3 s run: constant-rate moves, commanded
    or external, on up to four torso, neck, eye or base channels and a noise
    band on up to two others; any mode, DoF set and sequential flag, the
    lagged or ideal plant, gyro noise 0 or 0.005 and delay 0-5; and, half
    the time, a 10 km fixation whose eyes verge out of the singular band."""
    duration = draw(st.floats(0.05, 0.3))
    far = draw(st.booleans())
    segments = [ScriptSegment(0.0, duration, "eye-vergence", 0.02)] if far else []
    pool = [ch for ch in CHANNELS if not (far and ch == "eye-vergence")]
    channels = draw(st.lists(st.sampled_from(pool), max_size=6, unique=True))
    for ch in channels[:4]:
        t0 = draw(st.floats(0.0, duration))
        t1 = draw(st.floats(t0 + 0.01, duration + 0.05))
        limit = 2.0 if ch.startswith("base") else 1.0  # m/s or rad/s
        segments.append(ScriptSegment(t0, t1, ch, draw(st.floats(-limit, limit)), external=draw(st.booleans())))
    noise = ()
    if channels[4:]:
        t0 = draw(st.floats(0.0, duration))
        band = NoiseSegment(t0, t0 + draw(st.floats(0.01, 0.3)), tuple(channels[4:]), draw(st.floats(0.0, 0.5)),
                            draw(st.floats(0.5, 20.0)), seed=draw(st.integers(0, 9)), external=draw(st.booleans()))
        noise = (band,)
    control = StabilizerConfig(
        mode=draw(st.sampled_from(["off", "kff", "ifb"])), dof_set=draw(st.sampled_from(["eyes", "neck-eyes"])),
        sequential=draw(st.booleans()),
    )
    sim = SimSettings(
        control=control, plant=draw(st.sampled_from([PlantParams(), PlantParams(0.0, 0.0)])), duration=duration,
        fixation_distance=1e4 if far else 6.0, gyro_sigma=draw(st.sampled_from([0.0, 0.005])),
        gyro_delay_ticks=draw(st.integers(0, 5)), seed=draw(st.integers(0, 3)),
    )
    return DisturbanceScript("random", tuple(segments), noise), sim


@settings(max_examples=30, deadline=None)
@given(case=reference_cases())
@example(case=neck_flick()[1:])
@example(case=(
    DisturbanceScript("leave", segments=(ScriptSegment(0.0, 0.2, "torso-yaw", 0.35),
                                         ScriptSegment(0.05, 0.2, "eye-vergence", 0.02))),
    SimSettings(control=StabilizerConfig(mode="ifb"), fixation_distance=1e4, duration=0.2),
))
@example(case=(
    DisturbanceScript("slide", segments=(ScriptSegment(0.0, 0.2, "base-y", 0.1),)),
    SimSettings(control=StabilizerConfig(mode="ifb"), gyro_sigma=0.005, gyro_delay_ticks=2, duration=0.2),
))
@example(case=(
    DisturbanceScript("lift", segments=(ScriptSegment(0.0, 1.0, "base-z", 10.0),)),
    SimSettings(control=StabilizerConfig(mode="kff"), duration=1.0),
))
def test_loop_matches_the_reference_loop_byte_for_byte(case):
    # Every log column of run_experiment, or of a failed run's partial log
    # with its error, equals the reference loop's bit for bit: the loop's
    # reuse (still-head record, IMU pose, gyro rate and J, the kept
    # command, the view cone, the delay line) changes no bit.
    script, sim = case
    log, err = run_or_partial(script, sim)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", JointLimitWarning)
        ref, ref_err = reference_run(MODEL, script, sim)
    assert (type(err), str(err)) == (type(ref_err), str(ref_err))
    for name, _, _ in simulator.LOG_COLUMNS:
        got, want = getattr(log, name), ref[name]
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name


def scaled_lengths(script, sim, k):
    """(model, script, settings) of a run on MODEL with every length times
    2**k: the DH a and d, the base and IMU-offset translations, the cloud
    radii, the fixation distance, and the base channels' rates and noise
    amplitudes.  Angles, times, rates in rad/s, the camera and the seeds
    stay."""
    f, chain = math.ldexp(1.0, k), MODEL.chain
    links = tuple(replace(link, a=link.a * f, d=link.d * f) for link in chain.links)
    base = Pose(chain.base_pose.rot, chain.base_pose.pos * f)
    imu = Pose(MODEL.imu_offset.rot, MODEL.imu_offset.pos * f)
    model = HeadModel(KinematicChain(links, base, chain.segments), MODEL.imu_link, imu, MODEL.trunk_names, MODEL.name)
    segments = tuple(replace(seg, rate=seg.rate * f) if seg.channel in BASE_CHANNELS else seg
                     for seg in script.segments)
    noise = tuple(replace(band, amplitude=band.amplitude * f) if band.channels[0] in BASE_CHANNELS else band
                  for band in script.noise)
    cloud = replace(sim.cloud, r_min=sim.cloud.r_min * f, r_max=sim.cloud.r_max * f)
    return model, replace(script, segments=segments, noise=noise), replace(
        sim, cloud=cloud, fixation_distance=sim.fixation_distance * f)


@settings(max_examples=20, deadline=None)
@given(case=reference_cases(), k=st.integers(-20, 20))
@example(case=(DisturbanceScript("yaw", (ScriptSegment(0.0, 0.1, "torso-yaw", 0.6),)), SimSettings(duration=0.1)),
         k=-20)
@example(case=(
    DisturbanceScript("slide", (ScriptSegment(0.0, 0.1, "base-y", 0.4),)),
    SimSettings(control=StabilizerConfig(mode="ifb"), duration=0.1),
), k=20)
def test_scaling_every_length_by_a_power_of_two_scales_only_the_length_columns(case, k):
    """The fixation geometry is built from lengths and angles alone and a
    pinhole camera is scale-free, so with every length times 2**k (and
    damping 0: one damping serves the neck block, in angles, and the eye
    block, in lengths) every angle column stays bit for bit and every length
    column is exactly 2**k times the unscaled run's; a run that fails fails
    alike.  A power of two scales each rounding exactly.

    k stops at -20 because _project tests depth against an absolute 1e-9 m:
    at 2**-40 the whole cloud, about 5e-12 m away, falls under it and every
    run fails at its first tick (InsufficientCoverage).  From 2**-20 up a
    point the test judges differently lies within about 1 mm of the camera
    plane, far off the image, so neither run counts it."""
    script, sim = case
    # a noise band drives its channels alike: one over joint and base channels has no one scale
    assume(all({ch in BASE_CHANNELS for ch in band.channels} != {True, False} for band in script.noise))
    sim = replace(sim, control=replace(sim.control, damping=0.0))
    log, err = run_or_partial(script, sim)
    model, scaled_script, scaled_sim = scaled_lengths(script, sim, k)
    scaled_log, scaled_err = run_or_partial(scaled_script, scaled_sim, model)
    assert type(scaled_err) is type(err)
    f = math.ldexp(1.0, k)
    for name in ("t", "q", "qdot", "cmd", "optfl", "n_valid", "saturated", "singular"):
        assert getattr(scaled_log, name).tobytes() == getattr(log, name).tobytes(), name
    for name in ("est_twist", "true_twist"):
        got, want = getattr(scaled_log, name), getattr(log, name)
        assert got[:, 3:].tobytes() == want[:, 3:].tobytes(), name
        assert got[:, :3].tobytes() == (want[:, :3] * f).tobytes(), name
    for name in ("base_offset", "fp"):
        assert getattr(scaled_log, name).tobytes() == (getattr(log, name) * f).tobytes(), name
