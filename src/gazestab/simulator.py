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

run_experiment is one loop body per plant state, the initial state and
every state a tick produces alike: it writes the state's log row, logs the
tick that ended there (flow, true twist, command), then runs the tick that
starts there.  Estimation and compensation run on ticks that are neither
"off" nor singular; every other tick keeps the command it holds.  One test
on q's bytes decides what a state repeats: a state whose q equals the last
state's keeps that state's head record, IMU pose (before the base offset)
and fixation Jacobian, and its command while the estimate repeats too; a
third state on the same q also keeps the noise-free gyro rate, its IMU pair
being the last tick's (the gyro noise is drawn every tick all the same).
Nothing that reads qdot, the base offset or the script is kept.  A head
that holds still computes each of these once.

The stabilization metric projects a static random point cloud through the
left pinhole camera at consecutive states and averages the pixel
displacement over points that stay inside the image interior (a fixed
border is excluded) and in front of the camera in both frames.  The loop
projects only the cloud columns of a view cone about a reference pose (see
_cone): the interior's half-diagonal angle plus a margin.  While the
camera's motion since that pose keeps the certificate, no column left out
can reach the interior, so the mean and count are the whole cloud's, bit
for bit.  Else the cone re-centres on the new pose with a margin of
max(0.05 rad, 8 times the certificate's growth over the last tick).
flow_metric projects the whole cloud.

Checks sit at the public edge: value types store each scalar field, and
step, synth_gyro, realize and initial_state take each scalar argument,
through chain._real or chain._int; step and synth_gyro check their array
arguments too, and run_experiment's inputs are checked when built.  Values
built from checked ones are not checked again: step builds its new
PlantState unchecked after one finiteness check of the new q, qdot and base
offset (SimulationDiverged); the loop writes each estimate into its
est_twist log row (kFF as J @ rates, iFB through the estimator's private
lever-arm kernel) and hands compensate an unchecked Twist of views into
that row (its gyro samples, (omega, position) pairs, rest on the head
model's imu_offset, a rigid transform).
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .chain import FINITE, MAX_SCALE, NON_NEGATIVE, POSITIVE, _finite3, _int, _real, _reals, _unchecked, as_joint_array
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
    compensate,
)
from .stereo import _collapse, _expand, _head_pass, camera_frames, fixation_full_jacobian

DEFAULT_DT = 0.01
DEFAULT_GYRO_SIGMA = 0.005  # rad/s, per axis
MIN_FLOW_POINTS = 10  # fewer valid cloud points make the flow average meaningless
MAX_TICKS = 200_000  # 2,000 s at the default tick; caps the (n, 9) log and track arrays
MAX_CLOUD_POINTS = 100_000  # caps the (n, 3) cloud and its per-tick projections


# ------------------------------------------------------------------- plant


@dataclass(frozen=True)
class PlantParams:
    """First-order velocity-tracking constants (seconds); 0 = ideal plant."""

    tau_neck: float = 0.08
    tau_eye: float = 0.02

    def __post_init__(self):
        _reals(self, "PlantParams.", tau_neck=NON_NEGATIVE, tau_eye=NON_NEGATIVE)


@dataclass(frozen=True)
class PlantState:
    """Snapshot at time t: DoF positions, velocities executed over the last
    tick, and the accumulated base-stage translation."""

    t: float
    q: np.ndarray  # (9,)
    qdot: np.ndarray  # (9,)
    base_offset: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "t", _real(self.t, "PlantState.t", FINITE))
        object.__setattr__(self, "q", as_joint_array(self.q, 9, name="q"))
        object.__setattr__(self, "qdot", as_joint_array(self.qdot, 9, name="qdot"))
        object.__setattr__(self, "base_offset", _finite3(self.base_offset, "base_offset"))


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
    dt = _real(dt, "dt", POSITIVE)
    dist = as_joint_array(disturbance_qdot, 9, name="disturbance_qdot").tolist()
    act = np.zeros(9, dtype=bool) if active is None else np.asarray(active, dtype=bool)
    if act.shape != (9,):
        raise InvalidInput("active mask must have 9 entries")
    vel = [0.0] * 3 if base_vel is None else _finite3(base_vel, "base_vel").tolist()
    setpoint = [0.0] * 9 if command is None else [0.0] * 3 + command.qdot_neck.tolist() + command.qdot_eye.tolist()

    t = state.t + dt
    # explicit-Euler lag gains, clamped so tau <= dt degenerates to snapping
    g_neck = min(dt / params.tau_neck, 1.0) if params.tau_neck > 0.0 else 1.0
    g_eye = min(dt / params.tau_eye, 1.0) if params.tau_eye > 0.0 else 1.0
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
    dt, sigma = _real(dt, "dt", POSITIVE), _real(sigma, "gyro noise sigma", NON_NEGATIVE)
    if sigma > MAX_SCALE:  # SimSettings.gyro_sigma's cap: past it the noise could overflow
        raise InvalidInput(f"gyro noise sigma must lie in [0, {MAX_SCALE:g}], got {sigma!r}")
    if sigma > 0.0 and rng is None:
        raise InvalidInput("gyro noise requires an rng")
    rot_prev, _ = _imu_world(model, _head_pass(model.chain, state_prev.q).link_frames)
    rot_next, pos_next = _imu_world(model, _head_pass(model.chain, new_state.q).link_frames)
    omega = _gyro_rate(rot_prev, rot_next, dt)
    if sigma > 0.0:
        omega = omega + rng.normal(0.0, sigma, 3)
    return ImuSample(omega=omega, position=pos_next + new_state.base_offset)


def _gyro_rate(rot_prev, rot_next, dt) -> np.ndarray:
    """Noise-free world-frame gyro rate between two IMU orientations: the
    log-map of rot_prev^T rot_next over dt, rotated to the world.  synth_gyro
    and the loop both use it, and both add the noise as synth_gyro does."""
    return rot_prev @ (_so3_log(rot_prev.T @ rot_next) / dt)


# ------------------------------------------------------------- flow metric


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics; border pixels are excluded from the flow average."""

    f: float = 240.0
    width: int = 320
    height: int = 240
    border: int = 20

    def __post_init__(self):
        focal = (f"be positive and at most {MAX_SCALE:g}", math.ulp(0.0), MAX_SCALE)
        object.__setattr__(self, "f", _real(self.f, "focal length", focal))
        for name in ("width", "height", "border"):
            size = _int(getattr(self, name), "image width, height and border", rule="be integers >= 0")
            object.__setattr__(self, name, size)
        if self.width <= 2 * self.border or self.height <= 2 * self.border:
            raise InvalidInput("image width and height must exceed twice the border")


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


def _cone(cam: CameraModel, cloud_t, rot, origin, margin: float):
    """(margin, d_min, columns): the C-ordered columns of a (3, n) cloud
    within atan(hypot(w/2 - border, h/2 - border) / f) + margin, the image
    interior's half-diagonal angle plus margin, of a left camera's optical
    axis, and the distance from its origin to the nearest column.  A camera
    whose axis turned by a and whose origin moved by s since this pose, with
    s < d_min and a + asin(s / d_min) + 1e-6 <= margin (the certificate),
    sees no left-out column inside the image interior.  A cone past 3 rad
    (near pi its cosine test would lose precision), one holding 3/4 of the
    columns or more, or a column so far away that its squared distance
    overflows keeps every column with an infinite margin: for the rest of
    the run."""
    limit = math.atan(math.hypot(cam.width / 2 - cam.border, cam.height / 2 - cam.border) / cam.f) + margin
    if limit < 3.0:
        d = cloud_t - origin[:, None]
        r2 = np.einsum("ij,ij->j", d, d)
        if r2.max() < math.inf:
            keep = rot[:, 2] @ d >= math.cos(limit) * np.sqrt(r2)
            if 4 * np.count_nonzero(keep) < 3 * keep.size:  # a smaller cut saves less than re-centring costs
                return margin, math.sqrt(r2.min()), np.compress(keep, cloud_t, axis=1)
    return math.inf, math.inf, cloud_t


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
    # the sum np.linalg.norm(axis=1) forms over (du, dv) rows, so the bits
    # match; then the sum and divide np.mean does
    return float(np.add.reduce(np.sqrt(du * du + dv * dv))) / n, n


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
        points = f"contain 500 to {MAX_CLOUD_POINTS} points, a whole number"
        object.__setattr__(self, "n", _int(self.n, "cloud", 500, MAX_CLOUD_POINTS, points))
        # the angles are half-widths of make_cloud's ranges, all the way round
        # and up; -0 is stored as 0, as make_cloud samples [-angle, angle]
        azimuth = ("lie in [0, pi] rad (0 to 180 degrees)", 0.0, math.pi)
        elevation = ("lie in [0, pi/2] rad (0 to 90 degrees)", 0.0, math.pi / 2)
        _reals(self, "cloud ", r_min=POSITIVE, r_max=POSITIVE, azimuth=azimuth, elevation=elevation)
        object.__setattr__(self, "azimuth", self.azimuth + 0.0)
        object.__setattr__(self, "elevation", self.elevation + 0.0)
        if not self.r_min <= self.r_max <= MAX_SCALE:
            raise InvalidInput(f"cloud radii must satisfy r_min <= r_max <= {MAX_SCALE:g}")
        object.__setattr__(self, "seed", _int(self.seed, "cloud seed"))


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
        _reals(self, "segment ", t_start=NON_NEGATIVE, t_end=FINITE, rate=FINITE)
        if not self.t_start < self.t_end:
            raise InvalidInput(f"segment times must satisfy t_start < t_end, got [{self.t_start}, {self.t_end})")


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
        # the series reaches several times its std (the amplitude): a larger one could overflow
        amplitude = ("lie in [0, 1e300]", 0.0, 1e300)
        _reals(self, "noise ", t_start=NON_NEGATIVE, t_end=FINITE, amplitude=amplitude, bandwidth=POSITIVE)
        if not self.t_start < self.t_end:
            raise InvalidInput(f"noise times must satisfy t_start < t_end, got [{self.t_start}, {self.t_end})")
        object.__setattr__(self, "seed", _int(self.seed, "noise seed"))


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
        """Evaluate every channel on the tick grid.  Deterministic.  A segment
        owns one row range of the sorted grid, the ticks t with t_start - 1e-12
        <= t < t_end - 1e-12.  The arrays are columns of a rate and a commanded table."""
        dt = _real(dt, "dt", POSITIVE)
        n_ticks = _int(n_ticks, "n_ticks", 1, MAX_TICKS, f"be an integer from 1 to {MAX_TICKS}")
        self.validate(model)
        rates = np.zeros((n_ticks, 12))
        commanded = np.zeros((n_ticks, 12))
        active = np.zeros((n_ticks, 9), dtype=bool)
        t = np.arange(n_ticks) * dt

        def owned(seg) -> slice:
            return slice(*np.searchsorted(t, (seg.t_start - 1e-12, seg.t_end - 1e-12)).tolist())

        def add(rows, channel, series, external):
            col = self._column(model, channel)
            rates[rows, col] += series
            if col < 9:
                active[rows, col] = True
            if not external:
                commanded[rows, col] += series

        for seg in self.segments:
            add(owned(seg), seg.channel, seg.rate, seg.external)

        for seg in self.noise:
            rows = owned(seg)
            n = rows.stop - rows.start
            rng = np.random.default_rng(seg.seed)  # one stream across the line's channels, in order
            a = math.exp(-2.0 * math.pi * seg.bandwidth * dt)
            drive = seg.amplitude * math.sqrt(max(1.0 - a * a, 0.0))
            for ch in seg.channels:
                x = 0.0
                series = np.empty(n)
                for k, eta in enumerate(rng.normal(size=n)):
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
        sigma = (f"lie in [0, {MAX_SCALE:g}]", 0.0, MAX_SCALE)
        _reals(self, "", dt=POSITIVE, fixation_distance=POSITIVE, gyro_sigma=sigma)
        if self.duration is not None:
            _reals(self, "", duration=POSITIVE)
            _tick_count(self.duration, self.dt)
        delay = _int(self.gyro_delay_ticks, "gyro delay", rule="be an integer number of ticks >= 0")
        object.__setattr__(self, "gyro_delay_ticks", delay)
        object.__setattr__(self, "seed", _int(self.seed, "seed"))


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
    """Dense per-tick record of one run (row 0 = initial state).  Log v1 has
    zeros in fp where the state has parallel axes, and in true_twist where the
    tick that ended there began at such a state: only singular marks them."""

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
    fixation_distance = _real(fixation_distance, "fixation_distance", POSITIVE)
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

    One loop body per plant state, row 0 included.  It reads the state's
    one head pass (see gazestab.stereo) into its row (t, q, qdot, base
    offset, fixation point) in the world -- the head moved rigidly by the
    base offset -- with the left camera's pose and, in "ifb" mode, the IMU
    pose.  A row whose q bytes equal the last row's (so -0.0 and 0.0
    differ) is still: it reuses that row's head pass and IMU pose.  The
    singular flag marks a state with parallel optical axes, or one whose
    tick began at such a state and held its command.  From row 1 on it logs
    the tick that ended at the state (flow, true twist, command), and it
    re-centres the flow's view cone when the certificate breaks (row 0 sets
    it up).  Then, but for the last row, it runs the tick from the state:
    its fixation Jacobian reads that pass and is kept on a still row; the
    command is kept while the J is and the estimate's bytes repeat.  The
    gyro sample is formed from two carried IMU poses as synth_gyro forms
    it; a still row after a still row keeps its noise-free rate.
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

    cmd = StabilizerCommand.hold()
    # A row whose q bytes equal q_key, the last row's, is still: it keeps what
    # that q fixes (see the module docstring).  cmd is kept while J is and the
    # estimate's bytes equal est_key, what compensate last got.
    J = q_key = est_key = imu = None
    still = False
    # the view cone's margin (see _cone), and the certificate angle of the
    # latest pose and of the one before; a margin of -inf sets the cone up at row 0
    margin, cert, cert_last = -math.inf, 0.0, 0.0
    logged = 1  # rows fully written (row 0 is before anything can fail); a failed run's partial log keeps these
    # the iFB delay line: the newest sample and the delay before it, read at
    # [0]; a delay past the run's end reads no sample either way
    delay = min(settings.gyro_delay_ticks, n_ticks)
    gyro_buffer: deque[tuple] = deque(maxlen=delay + 1)  # (omega, position) samples
    try:
        for row in range(n_rows):
            # --- read state `row` into its row, in the world: the head moved by b
            b, q_bytes = state.base_offset, state.q.tobytes()
            still, was_still, q_key = q_bytes == q_key, still, q_bytes
            if not still:
                head = _head_pass(model.chain, state.q)
                if ifb:
                    rot_imu, pos_imu = _imu_world(model, head.link_frames)
            log.t[row], log.q[row], log.qdot[row], log.base_offset[row] = state.t, state.q, state.qdot, b
            x_fp = None if head.fx is None else head.fx.point + b
            if x_fp is not None:
                log.fp[row] = x_fp
            # parallel axes here, or where the tick that ended here began (it had no J and held its command)
            log.singular[row] = x_fp is None or (row > 0 and J is None)
            rot, origin = head.cams.rot_left, head.cams.o_left + b
            z, o = rot[:, 2].tolist(), origin.tolist()
            if ifb:
                imu_prev, imu = imu, (rot_imu, pos_imu + b)

            if row:  # --- log the tick that ended at this state
                proj_next = _project(settings.cam, rot, origin, cols)
                optfl, n_valid = _flow(proj, proj_next)
                if n_valid < MIN_FLOW_POINTS:
                    raise InsufficientCoverage(
                        f"only {n_valid} cloud points remained valid at t={state.t:.3f}s "
                        f"(need >= {MIN_FLOW_POINTS})"
                    )
                if J is not None:
                    tw = J @ state.qdot
                    tw[:3] += track.base_vel[row - 1]
                    log.true_twist[row] = tw
                log.cmd[row] = np.concatenate([cmd.qdot_neck, cmd.qdot_eye])
                log.optfl[row], log.n_valid[row], log.saturated[row] = optfl, n_valid, cmd.saturated
                logged = row + 1
                if not math.isfinite(optfl):
                    raise SimulationDiverged("flow metric became non-finite", t=state.t)
                proj, shift, cert_last = proj_next, math.dist(o, o0), cert
                cert = 2 * math.asin(min(1.0, math.dist(z, z0) / 2))  # the axis turn, then the origin shift
                cert += math.asin(shift / d_min) if shift < d_min else math.inf
            if not cert + 1e-6 <= margin:  # the pair above read the old columns, as both poses allow
                margin, d_min, cols = _cone(settings.cam, cloud_t, rot, origin, max(0.05, 8 * (cert - cert_last)))
                z0, o0, cert = z, o, 0.0
                proj = _project(settings.cam, rot, origin, cols)
            if row == n_ticks:
                break

            # --- the tick from this state: estimate, compensate, step
            if not still:  # parallel axes have no fixation Jacobian: the command is held
                J = None if x_fp is None else fixation_full_jacobian(model.chain, state.q)
                est_key = None
            if J is not None and cfg.mode != "off":
                est = log.est_twist[row + 1]
                if ifb:
                    if row == 0:
                        omega = np.zeros(3)
                    else:
                        # synth_gyro's sample between the carried IMU poses, less
                        # the efference copy: the neck's own rotation (executed
                        # velocities over the same window the gyro integrated);
                        # script-owned neck channels are disturbance, not self-motion
                        if not (still and was_still):  # else the IMU pair, so the rate, repeats
                            rate = _gyro_rate(imu_prev[0], imu[0], settings.dt)
                        sigma = settings.gyro_sigma
                        omega = rate + rng_gyro.normal(0.0, sigma, 3) if sigma > 0.0 else rate
                        self_qdot = np.where(track.active[row - 1][3:6], 0.0, state.qdot[3:6])
                        omega = omega - J[3:6, 3:6] @ self_qdot
                    if not gyro_buffer:  # until the first sample comes out: no rotation, at its position
                        gyro_buffer.extend([(np.zeros(3), imu[1])] * delay)
                    gyro_buffer.append((omega, imu[1]))
                    est[:] = _estimate_ifb(*gyro_buffer[0], x_fp)
                else:
                    est[:] = J @ track.commanded_qdot[row]
                    est[:3] += track.commanded_base[row]
                if (est_bytes := est.tobytes()) != est_key:
                    cmd, est_key = compensate(_unchecked(Twist, v=est[:3], omega=est[3:]), J, cfg), est_bytes
            state = step(
                model, state, track.qdot[row], cmd, settings.dt, settings.plant, active=track.active[row],
                base_vel=track.base_vel[row],
            )
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
    log with no completed tick (fewer than 2 rows), which has no flow.  The
    residual speed and omega average the true twist over rows 1.. that are
    not singular, NaN when every such row is.
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

    # a singular row has no true twist (its cells hold zeros), so the means skip it
    twists = log.true_twist[1:][~log.singular[1:]]
    speeds = np.linalg.norm(twists[:, :3], axis=1)
    omegas = np.linalg.norm(twists[:, 3:], axis=1)
    return RunSummary(
        mode=str(log.meta.get("mode")),
        dof_set=str(log.meta.get("dof_set")),
        mean_optfl=mean_optfl,
        mean_residual_speed=float(np.mean(speeds)) if speeds.size else math.nan,
        mean_residual_omega=float(np.mean(omegas)) if omegas.size else math.nan,
        reduction_pct=reduction,
        segments=tuple(seg_rows),
    )
