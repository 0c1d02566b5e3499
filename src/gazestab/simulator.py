"""Closed-loop simulation: plant, synthetic gyro, synthetic optical flow.

The plant integrates the 9 head DoF with explicit Euler at a fixed tick, on
Python floats: they round as numpy's elementwise ufuncs do and cost less on
nine joints (the loop's BLAS products stay in numpy).  Disturbance channels
(scripted joints and the prismatic base stage) follow their script exactly;
stabilizer channels track their setpoints through a first-order velocity lag
(tau = 0 gives the ideal plant).  Joint limits are enforced in mechanical
joint space -- the eye coupling means a pan limit constrains version +-
vergence/2 -- by clamping position and zeroing the violating velocity (a
warning, not an error).

The prismatic base stage moves the whole head rigidly, so the loop reads the
run's one head model and adds a state's base offset only to the world points
it takes from it (left camera origin, fixation point, IMU position).

The gyro is synthesized from the IMU link's relative rotation between two
states (rotation log-map over one tick, mapped to the world frame), so it
faithfully measures disturbance *plus* the stabilizer's own neck motion; the
control loop subtracts the latter (efference copy from executed velocities)
before the lever-arm reconstruction.  The IMU rides on a neck link, shared
by both eye paths, so a state's head pass (see gazestab.stereo) holds its
frame: synth_gyro and the loop both read a state's IMU pose from its pass
through models._imu_world, the loop from the two passes it carries.

run_experiment reads each plant state in one step, the initial state and
every state a tick produces alike: the step writes the state's log row and
returns what the next tick reads of it (cloud projection, fixation point,
IMU pose).  Estimation and compensation run on ticks that are neither "off"
nor singular; every other tick keeps the command it holds.  The command
depends only on the posture's fixation Jacobian and on the estimate, so the
loop keeps its J while q repeats and its command while the estimate does
too: a head that holds still computes both once.

The stabilization metric projects a static random point cloud through the
left pinhole camera at consecutive states and averages the pixel
displacement over points that stay inside the image interior (a fixed
border is excluded) and in front of the camera in both frames.

Checks sit at the public edge: step, synth_gyro and the value types check
the arguments a caller passes, and run_experiment's inputs are checked when
they are built.  Values built from checked ones are not checked again: step
builds its new PlantState unchecked after one finiteness check of the new q,
qdot and base offset (SimulationDiverged); the loop writes each estimate
with the estimators' private kernels straight into its est_twist log row and
hands compensate an unchecked Twist of views into that row (its gyro samples,
(omega, position) pairs, rest on the head model's imu_offset, a finite rigid
transform).
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .chain import MAX_SCALE, _finite3, _unchecked, as_joint_array
from .errors import (
    InsufficientCoverage,
    InvalidComparison,
    InvalidInput,
    JointLimitWarning,
    SimulationDiverged,
)
from .models import BASE_CHANNELS, EYE_DOF_NAMES, TRUNK_NAMES, HeadModel, _imu_world
from .stabilizer import (
    ImuSample,
    StabilizerCommand,
    StabilizerConfig,
    Twist,
    _estimate_ifb,
    _estimate_kff,
    compensate,
)
from .stereo import _collapse, _expand, _head_pass, camera_frames, fixation_full_jacobian

DEFAULT_DT = 0.01
DEFAULT_GYRO_SIGMA = 0.005  # rad/s, per axis
MIN_FLOW_POINTS = 10  # fewer valid cloud points make the flow average meaningless
MAX_TICKS = 200_000  # 2,000 s at the default tick; caps the (n, 9) log and track arrays
MAX_CLOUD_POINTS = 100_000  # caps the (n, 3) cloud and its per-tick projections


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_seed(seed, what: str) -> None:
    # numpy's generators take only non-negative integer seeds
    if not (_is_int(seed) and seed >= 0):
        raise InvalidInput(f"{what} must be a non-negative integer, got {seed!r}")


# ------------------------------------------------------------------- plant


@dataclass(frozen=True)
class PlantParams:
    """First-order velocity-tracking constants (seconds); 0 = ideal plant."""

    tau_neck: float = 0.08
    tau_eye: float = 0.02

    def __post_init__(self):
        for name in ("tau_neck", "tau_eye"):
            v = getattr(self, name)
            if not (v >= 0.0 and math.isfinite(v)):
                raise InvalidInput(f"PlantParams.{name} must be finite and >= 0")


@dataclass(frozen=True)
class PlantState:
    """Snapshot at time t: DoF positions, velocities executed over the last
    tick, and the accumulated base-stage translation."""

    t: float
    q: np.ndarray  # (9,)
    qdot: np.ndarray  # (9,)
    base_offset: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise InvalidInput("PlantState.t must be finite")
        object.__setattr__(self, "q", as_joint_array(self.q, 9, name="q"))
        object.__setattr__(self, "qdot", as_joint_array(self.qdot, 9, name="qdot"))
        object.__setattr__(self, "base_offset", _finite3(self.base_offset, "base_offset"))


def _tracking_gain(dt: float, tau: float) -> float:
    # Explicit-Euler lag gain, clamped so tau <= dt degenerates to snapping.
    if tau <= 0.0:
        return 1.0
    return min(dt / tau, 1.0)


def step(
    model: HeadModel,
    state: PlantState,
    disturbance_qdot,
    command: StabilizerCommand | None,
    dt: float,
    params: PlantParams = PlantParams(),
    *,
    active=None,
    base_vel=None,
) -> PlantState:
    """Advance one tick.

    disturbance_qdot gives script rates per DoF; `active` marks which DoF the
    script owns this tick (those follow it exactly).  All other torso DoF
    rest; neck/eye DoF track the command setpoints through the lag.  state
    and command were checked when built, so only the other arguments and
    the new state's finiteness are checked here.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise InvalidInput("dt must be positive and finite")
    dist = as_joint_array(disturbance_qdot, 9, name="disturbance_qdot").tolist()
    act = np.zeros(9, dtype=bool) if active is None else np.asarray(active, dtype=bool)
    if act.shape != (9,):
        raise InvalidInput("active mask must have 9 entries")
    vel = [0.0] * 3 if base_vel is None else _finite3(base_vel, "base_vel").tolist()
    setpoint = [0.0] * 9 if command is None else [0.0] * 3 + command.qdot_neck.tolist() + command.qdot_eye.tolist()

    # float() gives a numpy scalar dt or gain the float64 that arrays made of it
    t = state.t + dt
    g_neck, g_eye = float(_tracking_gain(dt, params.tau_neck)), float(_tracking_gain(dt, params.tau_eye))
    dt = float(dt)
    qdot = state.qdot.tolist()
    for i, scripted in enumerate(act.tolist()):  # scripted DoF follow the script; other torso DoF rest
        if scripted:
            qdot[i] = dist[i]
        elif i < 3:
            qdot[i] = 0.0
        else:
            qdot[i] += (g_neck if i < 6 else g_eye) * (setpoint[i] - qdot[i])

    # Velocity and position limits live on the mechanical joints (the eye
    # coupling is linear, so velocities expand the same way positions do).  A
    # clip is np.minimum(np.maximum(x, lo), hi): a tie gives the limit, NaN passes.
    chain = model.chain
    v_max, lo, hi = chain.v_max.tolist(), chain.q_min.tolist(), chain.q_max.tolist()
    qdot_mech, q_mech, clamped = _expand(qdot), _expand(state.q.tolist()), []
    for i in range(10):
        v = qdot_mech[i]
        v = -v_max[i] if v <= -v_max[i] else v
        qdot_mech[i] = v = v_max[i] if v >= v_max[i] else v
        q_mech[i] += dt * v
        if q_mech[i] < lo[i] or q_mech[i] > hi[i]:
            clamped.append(i)
    if clamped:
        warnings.warn(JointLimitWarning(t, clamped), stacklevel=2)
        for i in range(10):
            x = lo[i] if q_mech[i] <= lo[i] else q_mech[i]
            q_mech[i] = hi[i] if x >= hi[i] else x
        for i in clamped:
            qdot_mech[i] = 0.0

    q_new, qdot_new = _collapse(q_mech), _collapse(qdot_mech)
    b = state.base_offset.tolist()
    base_offset = [b[0] + dt * vel[0], b[1] + dt * vel[1], b[2] + dt * vel[2]]
    if not all(map(math.isfinite, [t] + q_new + qdot_new + base_offset)):
        raise SimulationDiverged("plant state became non-finite", t=t)
    return _unchecked(PlantState, t=t, q=np.array(q_new), qdot=np.array(qdot_new), base_offset=np.array(base_offset))


# ------------------------------------------------------------ synthetic gyro


def _so3_log(R) -> np.ndarray:
    """Rotation vector of a rotation matrix (the SO(3) log map).

    Goes through the unit quaternion as scipy's Rotation does, so that the
    result matches `Rotation.from_matrix(R).as_rotvec()` bit for bit: the
    largest of the trace and the diagonal picks the numerically safe branch,
    and a short series replaces angle / sin(angle / 2) near zero.
    """
    m = np.asarray(R, dtype=float).tolist()
    trace = m[0][0] + m[1][1] + m[2][2]
    decision = [m[0][0], m[1][1], m[2][2], trace]
    i = decision.index(max(decision))
    if i == 3:
        q = [m[2][1] - m[1][2], m[0][2] - m[2][0], m[1][0] - m[0][1], 1 + trace]
    else:
        j, k = (i + 1) % 3, (i + 2) % 3
        q = [0.0] * 4
        q[i] = 1 - trace + 2 * m[i][i]
        q[j] = m[j][i] + m[i][j]
        q[k] = m[k][i] + m[i][k]
        q[3] = m[k][j] - m[j][k]
    norm = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    x, y, z, w = q[0] / norm, q[1] / norm, q[2] / norm, q[3] / norm
    if w < 0:
        x, y, z, w = -x, -y, -z, -w
    angle = 2 * math.atan2(math.sqrt(x * x + y * y + z * z), w)
    if angle <= 1e-3:
        a2 = angle * angle
        scale = 2 + a2 / 12 + 7 * a2 * a2 / 2880
    else:
        scale = angle / math.sin(angle / 2)
    return np.array([scale * x, scale * y, scale * z])


def synth_gyro(
    model: HeadModel,
    state_prev: PlantState,
    new_state: PlantState,
    dt: float,
    *,
    sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> ImuSample:
    """Gyro sample for the motion between two states.

    omega is the rotation log-map of R_prev^T R_next divided by dt, mapped to
    the world frame; position is the IMU's world position at new_state.
    Optional zero-mean Gaussian noise with std sigma per axis.  Both IMU
    poses are read from the states' head passes.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise InvalidInput("dt must be positive and finite")
    if not (sigma >= 0.0 and math.isfinite(sigma)):
        raise InvalidInput("gyro noise sigma must be finite and >= 0")
    if sigma > 0.0 and rng is None:
        raise InvalidInput("gyro noise requires an rng")
    rot_prev, _ = _imu_world(model, _head_pass(model.chain, state_prev.q).link_frames)
    rot_next, pos_next = _imu_world(model, _head_pass(model.chain, new_state.q).link_frames)
    omega = _gyro_omega(rot_prev, rot_next, dt, sigma, rng)
    return ImuSample(omega=omega, position=pos_next + new_state.base_offset)


def _gyro_omega(rot_prev, rot_next, dt, sigma, rng) -> np.ndarray:
    """World-frame gyro rate between two IMU orientations: the log-map of
    rot_prev^T rot_next over dt, rotated to the world, plus noise drawn from
    rng only when sigma > 0.  synth_gyro and the loop both use it."""
    omega = rot_prev @ (_so3_log(rot_prev.T @ rot_next) / dt)
    if sigma > 0.0:
        omega = omega + rng.normal(0.0, sigma, 3)
    return omega


# ------------------------------------------------------------- flow metric


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics; border pixels are excluded from the flow average."""

    f: float = 240.0
    width: int = 320
    height: int = 240
    border: int = 20

    def __post_init__(self):
        if not 0 < self.f <= MAX_SCALE:
            raise InvalidInput(f"focal length must be positive and at most {MAX_SCALE:g}")
        if not all(_is_int(getattr(self, name)) for name in ("width", "height", "border")):
            raise InvalidInput("image width, height and border must be integers")
        if self.border < 0:
            raise InvalidInput("image border must be >= 0")
        if self.width <= 2 * self.border or self.height <= 2 * self.border:
            raise InvalidInput("image must be wider than twice the border")


def _project(cam: CameraModel, rot, origin, cloud_t):
    """Pixel coordinates u and v and the interior-validity mask of a point
    cloud given as a C-contiguous (3, n) array, as three (n,) arrays.  u and
    v round as w/2 + f*x/z does."""
    x, y, z = rot.T @ (cloud_t - origin[:, None])
    ok = z > 1e-9
    zs = np.where(ok, z, 1.0)
    u = cam.f * x
    u /= zs
    u += cam.width / 2.0
    v = cam.f * y
    v /= zs
    v += cam.height / 2.0
    ok &= u >= cam.border
    ok &= u <= cam.width - cam.border
    ok &= v >= cam.border
    ok &= v <= cam.height - cam.border
    return u, v, ok


def _flow(proj_prev, proj_next) -> tuple[float, int]:
    """(mean pixel displacement, number of points counted) between two
    _project results of one cloud, squaring only counted points (an off-image
    u may overflow); the mean is NaN when fewer than MIN_FLOW_POINTS count."""
    (u_a, v_a, ok_a), (u_b, v_b, ok_b) = proj_prev, proj_next
    ok = ok_a & ok_b
    n = int(np.count_nonzero(ok))
    if n < MIN_FLOW_POINTS:
        return math.nan, n
    du = (u_b - u_a)[ok]
    dv = (v_b - v_a)[ok]
    # the sum np.linalg.norm(axis=1) forms over (du, dv) rows, so the bits match
    return float(np.mean(np.sqrt(du * du + dv * dv))), n


def flow_metric(cam: CameraModel, frames_prev, frames_next, cloud) -> float:
    """Mean pixel displacement of the static cloud seen by the left camera.

    Points must project to the image interior and lie in front of the camera
    in *both* frames to count; fewer than 10 survivors raises
    InsufficientCoverage.
    """
    cloud = np.asarray(cloud, dtype=float)
    if cloud.ndim != 2 or cloud.shape[1] != 3:
        raise InvalidInput("cloud must be an (n, 3) array")
    if not np.isfinite(cloud).all():
        raise InvalidInput("cloud must be finite")
    cloud_t = np.ascontiguousarray(cloud.T)
    mean, n = _flow(
        _project(cam, frames_prev.rot_left, frames_prev.o_left, cloud_t),
        _project(cam, frames_next.rot_left, frames_next.o_left, cloud_t),
    )
    if n < MIN_FLOW_POINTS:
        raise InsufficientCoverage(f"only {n} cloud points remained valid (need >= {MIN_FLOW_POINTS})")
    return mean


@dataclass(frozen=True)
class CloudSpec:
    """Seeded shell of static world points in front of the initial gaze."""

    n: int = 900
    r_min: float = 5.7
    r_max: float = 6.3
    azimuth: float = math.radians(80.0)
    elevation: float = math.radians(55.0)
    seed: int = 2024

    def __post_init__(self):
        if not 500 <= self.n <= MAX_CLOUD_POINTS:
            raise InvalidInput(f"cloud must contain 500 to {MAX_CLOUD_POINTS} points, got {self.n}")
        if not 0.0 < self.r_min <= self.r_max <= MAX_SCALE:
            raise InvalidInput(f"cloud radii must satisfy 0 < r_min <= r_max <= {MAX_SCALE:g}")
        # half-widths of make_cloud's angle ranges: all the way round and up;
        # -0 becomes 0, as make_cloud samples [-angle, angle]
        object.__setattr__(self, "azimuth", self.azimuth + 0.0)
        object.__setattr__(self, "elevation", self.elevation + 0.0)
        if not 0.0 <= self.azimuth <= math.pi:
            raise InvalidInput(f"cloud azimuth must lie in [0, pi] rad (0 to 180 degrees), got {self.azimuth!r}")
        if not 0.0 <= self.elevation <= math.pi / 2:
            raise InvalidInput(f"cloud elevation must lie in [0, pi/2] rad (0 to 90 degrees), got {self.elevation!r}")
        _check_seed(self.seed, "cloud seed")


def make_cloud(spec: CloudSpec, center) -> np.ndarray:
    """Sample the shell around `center`, forward (+x) biased, deterministic."""
    center = _finite3(center, "center")
    rng = np.random.default_rng(spec.seed)
    az = rng.uniform(-spec.azimuth, spec.azimuth, spec.n)
    el = rng.uniform(-spec.elevation, spec.elevation, spec.n)
    r = rng.uniform(spec.r_min, spec.r_max, spec.n)
    dirs = np.column_stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)])
    return center + r[:, None] * dirs


# -------------------------------------------------------- disturbance script


@dataclass(frozen=True)
class ScriptSegment:
    """Constant-rate drive of one channel over [t_start, t_end).

    external=True marks motion the robot did not command (no feedforward
    signal); the default is self-generated motion the kFF estimator may use.
    """

    t_start: float
    t_end: float
    channel: str
    rate: float
    external: bool = False

    def __post_init__(self):
        if not (0.0 <= self.t_start < self.t_end and math.isfinite(self.t_end)):
            raise InvalidInput(f"bad segment times [{self.t_start}, {self.t_end})")
        if not math.isfinite(self.rate):
            raise InvalidInput("segment rate must be finite")


@dataclass(frozen=True)
class NoiseSegment:
    """Band-limited (first-order low-passed) Gaussian rate noise.

    amplitude is the stationary std in rad/s, bandwidth the low-pass corner
    in Hz.  Seeded locally so every run of every mode sees the identical
    disturbance realization.  Noise models unmeasured hand-shaking, hence
    external=True by default.
    """

    t_start: float
    t_end: float
    channels: tuple[str, ...]
    amplitude: float
    bandwidth: float
    seed: int
    external: bool = True

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        if not (0.0 <= self.t_start < self.t_end and math.isfinite(self.t_end)):
            raise InvalidInput("bad noise segment times")
        amp, bw = self.amplitude, self.bandwidth
        # the series reaches several times its std (the amplitude): a larger one could overflow
        if not (0.0 <= amp <= 1e300 and bw > 0.0 and math.isfinite(bw)):
            raise InvalidInput("noise amplitude must lie in [0, 1e300], bandwidth be finite and > 0")
        _check_seed(self.seed, "noise seed")


@dataclass(frozen=True)
class DisturbanceTrack:
    """Script realized on a tick grid (one row per tick)."""

    qdot: np.ndarray  # (n, 9) all disturbance rates
    base_vel: np.ndarray  # (n, 3)
    active: np.ndarray  # (n, 9) bool: script owns this DoF this tick
    commanded_qdot: np.ndarray  # (n, 9) the non-external part
    commanded_base: np.ndarray  # (n, 3)


@dataclass(frozen=True)
class DisturbanceScript:
    """Ordered constant-rate segments plus optional noise bands."""

    name: str
    segments: tuple[ScriptSegment, ...] = ()
    noise: tuple[NoiseSegment, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "noise", tuple(self.noise))

    def duration(self) -> float:
        ends = [s.t_end for s in self.segments] + [s.t_end for s in self.noise]
        return max(ends) if ends else 0.0

    def span_list(self):
        """(label, t_start, t_end) rows for reporting, script order."""
        rows = [(s.channel, s.t_start, s.t_end) for s in self.segments]
        rows += [("noise:" + "+".join(s.channels), s.t_start, s.t_end) for s in self.noise]
        return rows

    def _column(self, model: HeadModel, channel: str) -> int:
        """Column of a channel in realize's tables: the 9 DoF, then base x, y, z."""
        names = model.dof_names + BASE_CHANNELS
        if channel not in names:
            raise InvalidInput(f"unknown script channel {channel!r}; expected one of {names}")
        return names.index(channel)

    def validate(self, model: HeadModel) -> None:
        """Resolve channels and reject overlapping claims on one channel."""
        spans: dict[str, list[tuple[float, float]]] = {}
        claims = [(s.channel, s) for s in self.segments] + [(ch, s) for s in self.noise for ch in s.channels]
        for ch, seg in claims:
            self._column(model, ch)
            spans.setdefault(ch, []).append((seg.t_start, seg.t_end))
        for ch, times in spans.items():
            times.sort()
            for (a0, a1), (b0, b1) in zip(times, times[1:]):
                if b0 < a1:
                    raise InvalidInput(
                        f"channel {ch!r} has overlapping segments "
                        f"[{a0}, {a1}) and [{b0}, {b1})"
                    )

    def realize(self, model: HeadModel, dt: float, n_ticks: int) -> DisturbanceTrack:
        """Evaluate every channel on the tick grid.  Deterministic.  The track's
        arrays are column views of a rate and a commanded table (_column)."""
        self.validate(model)
        rates = np.zeros((n_ticks, 12))
        commanded = np.zeros((n_ticks, 12))
        active = np.zeros((n_ticks, 9), dtype=bool)
        t = np.arange(n_ticks) * dt

        def add(rows, channel, series, external):
            col = self._column(model, channel)
            rates[rows, col] += series
            if col < 9:
                active[rows, col] = True
            if not external:
                commanded[rows, col] += series

        for seg in self.segments:
            rows = (t >= seg.t_start - 1e-12) & (t < seg.t_end - 1e-12)
            add(rows, seg.channel, seg.rate, seg.external)

        for seg in self.noise:
            rows = np.nonzero((t >= seg.t_start - 1e-12) & (t < seg.t_end - 1e-12))[0]
            if rows.size == 0:
                continue
            rng = np.random.default_rng(seg.seed)  # one stream across the line's channels, in order
            a = math.exp(-2.0 * math.pi * seg.bandwidth * dt)
            drive = seg.amplitude * math.sqrt(max(1.0 - a * a, 0.0))
            for ch in seg.channels:
                x = 0.0
                series = np.empty(rows.size)
                for k, eta in enumerate(rng.normal(size=rows.size)):
                    x = a * x + drive * eta
                    series[k] = x
                add(rows, ch, series, seg.external)

        return DisturbanceTrack(rates[:, :9], rates[:, 9:], active, commanded[:, :9], commanded[:, 9:])


# ------------------------------------------------------------ run settings


def _tick_count(duration: float, dt: float) -> int:
    """Ticks of a run: duration / dt rounded, from 1 to MAX_TICKS."""
    ticks = duration / dt
    if ticks > MAX_TICKS + 0.5:
        raise InvalidInput(f"duration {duration:g} s at dt {dt:g} s is {ticks:.6g} ticks, over the cap of {MAX_TICKS}")
    n_ticks = int(round(ticks))
    if n_ticks < 1:
        raise InvalidInput("duration shorter than one tick")
    return n_ticks


@dataclass(frozen=True)
class SimSettings:
    """Everything one closed-loop run needs besides model and script."""

    control: StabilizerConfig = field(default_factory=StabilizerConfig)
    plant: PlantParams = field(default_factory=PlantParams)
    cam: CameraModel = field(default_factory=CameraModel)
    cloud: CloudSpec = field(default_factory=CloudSpec)
    dt: float = DEFAULT_DT
    duration: float | None = None  # None: script duration + 0.5 s settle
    fixation_distance: float = 6.0
    seed: int = 0
    gyro_sigma: float = DEFAULT_GYRO_SIGMA
    gyro_delay_ticks: int = 0

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise InvalidInput("dt must be positive")
        if self.duration is not None:
            if not (self.duration > 0.0 and math.isfinite(self.duration)):
                raise InvalidInput("duration must be positive and finite")
            _tick_count(self.duration, self.dt)
        if not (self.fixation_distance > 0.0 and math.isfinite(self.fixation_distance)):
            raise InvalidInput("fixation_distance must be positive and finite")
        if not _is_int(self.gyro_delay_ticks):
            raise InvalidInput("gyro delay must be an integer number of ticks")
        if not 0.0 <= self.gyro_sigma <= MAX_SCALE or self.gyro_delay_ticks < 0:
            raise InvalidInput(f"gyro noise must lie in [0, {MAX_SCALE:g}] and gyro delay be non-negative")
        _check_seed(self.seed, "seed")


# Each TrajectoryLog array with its CSV columns and dtype, in file order (log
# v1); a one-column array is 1-D.  Allocation, writer and reader all read it.
_TWIST_AXES = ("vx", "vy", "vz", "wx", "wy", "wz")
LOG_COLUMNS = (
    ("t", ("t",), float),
    ("q", tuple(f"q_{n}" for n in TRUNK_NAMES + EYE_DOF_NAMES), float),
    ("qdot", tuple(f"qdot_{n}" for n in TRUNK_NAMES + EYE_DOF_NAMES), float),
    ("base_offset", tuple(f"base_{c[-1]}" for c in BASE_CHANNELS), float),
    ("cmd", tuple(f"cmd_{n}" for n in TRUNK_NAMES[3:] + EYE_DOF_NAMES), float),
    ("est_twist", tuple(f"est_{a}" for a in _TWIST_AXES), float),
    ("true_twist", tuple(f"true_{a}" for a in _TWIST_AXES), float),
    ("fp", ("fp_x", "fp_y", "fp_z"), float),
    ("optfl", ("optfl",), float),
    ("n_valid", ("n_valid",), int),
    ("saturated", ("saturated",), bool),
    ("singular", ("singular",), bool),
)
# A run's metadata keys (TrajectoryLog.meta) with their types, in file order.
LOG_META = dict(
    script=str, mode=str, dof_set=str, model=str, dt=float, duration=float, seed=int, gyro_sigma=float,
    fixation_distance=float,
)


@dataclass
class TrajectoryLog:
    """Dense per-tick record of one run (row 0 = initial state)."""

    meta: dict
    t: np.ndarray  # (n+1,)
    q: np.ndarray  # (n+1, 9)
    qdot: np.ndarray  # (n+1, 9)
    base_offset: np.ndarray  # (n+1, 3)
    cmd: np.ndarray  # (n+1, 6) neck+eye setpoints issued for the tick ending here
    est_twist: np.ndarray  # (n+1, 6)
    true_twist: np.ndarray  # (n+1, 6)
    fp: np.ndarray  # (n+1, 3)
    optfl: np.ndarray  # (n+1,)
    n_valid: np.ndarray  # (n+1,)
    saturated: np.ndarray  # (n+1,) bool
    singular: np.ndarray  # (n+1,) bool
    segments: tuple  # (label, t_start, t_end) rows

    def n_rows(self) -> int:
        return self.t.size


def initial_state(model: HeadModel, fixation_distance: float) -> PlantState:
    """Neutral posture verged onto a target at the given forward distance."""
    fr = camera_frames(model.chain, np.zeros(9))
    baseline = float(np.linalg.norm(fr.o_left - fr.o_right))
    q0 = np.zeros(9)
    q0[8] = 2.0 * math.atan2(baseline / 2.0, fixation_distance)
    return PlantState(t=0.0, q=q0, qdot=np.zeros(9))


def run_experiment(model: HeadModel, script: DisturbanceScript, settings: SimSettings) -> TrajectoryLog:
    """Simulate the full closed loop and log every tick.

    Estimator choice follows settings.control.mode: "kff" pushes the
    commanded (non-external) disturbance rates through the fixation Jacobian
    and adds the commanded base velocity; "ifb" reconstructs the twist from
    the synthetic gyro after subtracting the neck's own contribution; "off"
    leaves the head passive.  On a parallel-gaze tick the fixation Jacobian
    does not exist and the previous command is held.

    One step per plant state, the initial one included: it reads the
    state's one head pass (see gazestab.stereo), writes the state's row
    (t, q, qdot, base offset, fixation point, singular flag) and returns
    what the next tick reads of it, in the world -- the head moved rigidly
    by the base offset: the cloud's projection into the left camera, the
    fixation point (None when the optical axes are parallel) and, in "ifb"
    mode, the IMU pose.  The next tick's fixation Jacobian reads that pass,
    and is kept while q holds still (bytes compared, so -0.0 and 0.0 differ);
    the command is kept while the J is and the estimate's bytes repeat.  The
    gyro sample is formed from two carried IMU poses as synth_gyro forms it.
    A run that fails (SimulationDiverged, InsufficientCoverage) carries its
    fully logged rows.
    """
    duration = settings.duration if settings.duration is not None else script.duration() + 0.5
    n_ticks = _tick_count(duration, settings.dt)
    track = script.realize(model, settings.dt, n_ticks)
    cfg = settings.control
    ifb = cfg.mode == "ifb"
    rng_gyro = np.random.default_rng(np.random.SeedSequence((settings.seed, 71)))

    state = initial_state(model, settings.fixation_distance)
    frames = camera_frames(model.chain, state.q)
    cloud_t = np.ascontiguousarray(make_cloud(settings.cloud, 0.5 * (frames.o_left + frames.o_right)).T)
    n_rows = n_ticks + 1
    log = TrajectoryLog(
        meta=dict(
            script=script.name, mode=cfg.mode, dof_set=cfg.dof_set, model=model.name, dt=settings.dt,
            duration=n_ticks * settings.dt, seed=settings.seed, gyro_sigma=settings.gyro_sigma,
            fixation_distance=settings.fixation_distance,
        ),
        segments=tuple(script.span_list()),
        **{
            name: np.zeros((n_rows, len(cols)) if len(cols) > 1 else n_rows, dtype)
            for name, cols, dtype in LOG_COLUMNS
        },
    )

    def observe(row, state):
        """Write a state's row; return what the next tick reads of it."""
        head, b = _head_pass(model.chain, state.q), state.base_offset
        log.t[row], log.q[row], log.qdot[row], log.base_offset[row] = state.t, state.q, state.qdot, b
        x_fp = None
        if head.fx is None:
            log.singular[row] = True
        else:
            x_fp = log.fp[row] = head.fx.point + b
        proj = _project(settings.cam, head.cams.rot_left, head.cams.o_left + b, cloud_t)
        if not ifb:
            return proj, x_fp, None
        rot, pos = _imu_world(model, head.link_frames)
        return proj, x_fp, (rot, pos + b)

    proj, x_fp, imu = observe(0, state)
    logged = 1  # rows fully written; a failed run's partial log keeps these
    cmd = StabilizerCommand.hold()
    # A still head repeats its J and command: J is kept while the state's q
    # bytes equal q_key, the q it was computed at, and cmd while that J is
    # kept and the estimate's bytes equal est_key, what compensate last got.
    J = q_key = est_key = None
    # the iFB delay line: the newest sample and the delay before it, read at
    # [0]; a delay past the run's end reads no sample either way
    delay = min(settings.gyro_delay_ticks, n_ticks)
    gyro_buffer: deque[tuple] = deque(maxlen=delay + 1)  # (omega, position) samples
    try:
        for k in range(n_ticks):
            row = k + 1
            if x_fp is None:  # parallel axes: no fixation Jacobian, the command is held
                J = q_key = None
                log.singular[row] = True
            elif (q_bytes := state.q.tobytes()) != q_key:
                J, q_key, est_key = fixation_full_jacobian(model.chain, state.q), q_bytes, None
            if J is not None and cfg.mode != "off":  # --- estimate and compensate
                est = log.est_twist[row]
                if ifb:
                    if k == 0:
                        omega = np.zeros(3)
                    else:
                        # synth_gyro's sample between the carried IMU poses, less
                        # the efference copy: the neck's own rotation (executed
                        # velocities over the same window the gyro integrated);
                        # script-owned neck channels are disturbance, not self-motion
                        omega = _gyro_omega(imu_prev[0], imu[0], settings.dt, settings.gyro_sigma, rng_gyro)
                        self_qdot = np.where(track.active[k - 1][3:6], 0.0, state.qdot[3:6])
                        omega = omega - J[3:6, 3:6] @ self_qdot
                    if not gyro_buffer:  # until the first sample comes out: no rotation, at its position
                        gyro_buffer.extend([(np.zeros(3), imu[1])] * delay)
                    gyro_buffer.append((omega, imu[1]))
                    est[:] = _estimate_ifb(*gyro_buffer[0], x_fp)
                else:
                    est[:] = _estimate_kff(J, track.commanded_qdot[k])
                    est[:3] += track.commanded_base[k]
                if (est_bytes := est.tobytes()) != est_key:
                    cmd, est_key = compensate(_unchecked(Twist, v=est[:3], omega=est[3:]), J, cfg), est_bytes

            # --- step, then log row k+1 --------------------------------
            new_state = step(
                model, state, track.qdot[k], cmd, settings.dt, settings.plant, active=track.active[k],
                base_vel=track.base_vel[k],
            )
            proj_next, fp_next, imu_next = observe(row, new_state)
            optfl, n_valid = _flow(proj, proj_next)
            if n_valid < MIN_FLOW_POINTS:
                raise InsufficientCoverage(
                    f"only {n_valid} cloud points remained valid at t={new_state.t:.3f}s "
                    f"(need >= {MIN_FLOW_POINTS})"
                )
            if J is not None:
                tw = J @ new_state.qdot
                tw[:3] += track.base_vel[k]
                log.true_twist[row] = tw
            log.cmd[row] = np.concatenate([cmd.qdot_neck, cmd.qdot_eye])
            log.optfl[row], log.n_valid[row], log.saturated[row] = optfl, n_valid, cmd.saturated
            logged = row + 1
            if not math.isfinite(optfl):
                raise SimulationDiverged("flow metric became non-finite", t=new_state.t)

            state, proj, x_fp, imu_prev, imu = new_state, proj_next, fp_next, imu, imu_next
    except (SimulationDiverged, InsufficientCoverage) as err:
        arrays = {name: getattr(log, name)[:logged].copy() for name, _, _ in LOG_COLUMNS}
        err.partial_log = replace(log, meta=dict(log.meta), **arrays)
        raise
    return log


# ---------------------------------------------------------------- summaries


@dataclass(frozen=True)
class SegmentSummary:
    label: str
    t_start: float
    t_end: float
    mean_optfl: float
    reduction_pct: float | None = None


@dataclass(frozen=True)
class RunSummary:
    mode: str
    dof_set: str
    mean_optfl: float
    mean_residual_speed: float
    mean_residual_omega: float
    reduction_pct: float | None
    segments: tuple[SegmentSummary, ...]


def _window_mean(log: TrajectoryLog, t0: float, t1: float) -> float:
    rows = (log.t > t0 + 1e-12) & (log.t <= t1 + 1e-12)
    if not rows.any():
        return math.nan
    return float(np.mean(log.optfl[rows]))


def summarize(log: TrajectoryLog, baseline: TrajectoryLog | None = None) -> RunSummary:
    """Aggregate a run; percent reductions are against the baseline run.

    The baseline must be the same script on the same tick grid, otherwise
    the comparison is meaningless and InvalidComparison is raised; so is a
    log with no completed tick (fewer than 2 rows), which has no flow.
    """
    if baseline is not None:
        same = (
            baseline.meta.get("script") == log.meta.get("script")
            and baseline.meta.get("dt") == log.meta.get("dt")
            and baseline.n_rows() == log.n_rows()
        )
        if not same:
            raise InvalidComparison(
                "baseline and run differ in script/dt/length: "
                f"{baseline.meta.get('script')}@{baseline.meta.get('dt')}x{baseline.n_rows()} vs "
                f"{log.meta.get('script')}@{log.meta.get('dt')}x{log.n_rows()}"
            )
    if log.n_rows() < 2:
        raise InvalidComparison(f"no completed tick to summarize: the log has {log.n_rows()} row(s)")

    mean_optfl = float(np.mean(log.optfl[1:]))
    reduction = None
    if baseline is not None:
        base_mean = float(np.mean(baseline.optfl[1:]))
        reduction = 100.0 * (1.0 - mean_optfl / base_mean) if base_mean > 0 else 0.0

    seg_rows = []
    for label, t0, t1 in log.segments:
        m = _window_mean(log, t0, t1)
        r = None
        if baseline is not None:
            bm = _window_mean(baseline, t0, t1)
            r = 100.0 * (1.0 - m / bm) if bm and bm > 0 and math.isfinite(bm) else None
        seg_rows.append(SegmentSummary(label, t0, t1, m, r))

    speeds = np.linalg.norm(log.true_twist[1:, :3], axis=1)
    omegas = np.linalg.norm(log.true_twist[1:, 3:], axis=1)
    return RunSummary(
        mode=str(log.meta.get("mode")),
        dof_set=str(log.meta.get("dof_set")),
        mean_optfl=mean_optfl,
        mean_residual_speed=float(np.mean(speeds)),
        mean_residual_omega=float(np.mean(omegas)),
        reduction_pct=reduction,
        segments=tuple(seg_rows),
    )
