"""Disturbance estimation and the decoupled neck/eye compensation law.

Two interchangeable disturbance estimators produce a fixation-point twist:

* feedforward (kFF): push commanded joint rates through the full fixation
  Jacobian.  By design the estimate is built from the *commanded disturbance*
  rates only (stabilizer outputs excluded), so the loop never chases its own
  compensation.
* inertial feedback (iFB): reconstruct the twist from a head-mounted gyro by
  the lever-arm rule v = omega x (x_fp - x_imu) on floats, omega unchanged.
  A pure head translation is invisible to this path on purpose.

Compensation is decoupled: the neck's three joints cancel the rotational
component through a damped pseudo-inverse of the neck rotation block, the
eyes cancel the translational component through the eye Jacobian.  With
"sequential" coupling (default) the eye command also mops up the translation
the fresh neck command is about to inject.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import NON_NEGATIVE, POSITIVE_OR_INF, _finite3, _real, _reals, _unchecked, as_joint_array
from .errors import InvalidInput, SingularMatrix

DEFAULT_DAMPING = 1e-3
DEFAULT_NECK_RATE_LIMIT = math.radians(40.0)
DEFAULT_EYE_RATE_LIMIT = math.radians(180.0)


@dataclass(frozen=True)
class Twist:
    """Fixation-point velocity: translational v (m/s) and angular omega (rad/s)."""

    v: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        for name in ("v", "omega"):
            object.__setattr__(self, name, _finite3(getattr(self, name), f"Twist.{name}"))

    @classmethod
    def zero(cls) -> "Twist":
        return cls(np.zeros(3), np.zeros(3))

    @classmethod
    def from_array(cls, arr) -> "Twist":
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (6,):
            raise InvalidInput("twist array must have 6 entries (v, omega)")
        return cls(arr[:3], arr[3:])

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.v, self.omega])


@dataclass(frozen=True)
class ImuSample:
    """World-frame angular velocity (rad/s) and sensor position (m)."""

    omega: np.ndarray
    position: np.ndarray

    def __post_init__(self):
        for name in ("omega", "position"):
            object.__setattr__(self, name, _finite3(getattr(self, name), f"ImuSample.{name}"))


@dataclass(frozen=True)
class StabilizerCommand:
    """Joint-rate setpoints (rad/s) plus saturation bookkeeping."""

    qdot_neck: np.ndarray  # (3,)
    qdot_eye: np.ndarray  # (3,) in (tilt, version, vergence)
    saturated: bool = False

    def __post_init__(self):
        for name in ("qdot_neck", "qdot_eye"):
            object.__setattr__(self, name, _finite3(getattr(self, name), f"StabilizerCommand.{name}"))

    @classmethod
    def hold(cls) -> "StabilizerCommand":
        return cls(np.zeros(3), np.zeros(3))


@dataclass(frozen=True)
class StabilizerConfig:
    """Control-law knobs.

    mode       -- "kff", "ifb" or "off" (used by the simulation loop to pick
                  the estimator; the compensation law itself is mode-blind)
    dof_set    -- "eyes" or "neck-eyes"
    damping    -- pseudo-inverse damping factor (0 = exact inverse)
    sequential -- eye command also cancels the fresh neck command's
                  translational side effect (decoupling order neck -> eyes)
    """

    mode: str = "kff"
    dof_set: str = "neck-eyes"
    damping: float = DEFAULT_DAMPING
    sequential: bool = True
    neck_rate_limit: float = DEFAULT_NECK_RATE_LIMIT
    eye_rate_limit: float = DEFAULT_EYE_RATE_LIMIT

    def __post_init__(self):
        if self.mode not in ("kff", "ifb", "off"):
            raise InvalidInput(f"unknown mode {self.mode!r}")
        if self.dof_set not in ("eyes", "neck-eyes"):
            raise InvalidInput(f"unknown dof_set {self.dof_set!r}")
        _reals(self, "", damping=NON_NEGATIVE, neck_rate_limit=POSITIVE_OR_INF, eye_rate_limit=POSITIVE_OR_INF)


# ------------------------------------------------------------ linear algebra


def pinv_damped(J, damping: float) -> np.ndarray:
    """Damped pseudo-inverse J^T (J J^T + damping^2 I)^-1, via SVD.

    J is one matrix (m, n) or a stack (..., m, n); a stack is inverted slice
    by slice in one SVD call, each slice bit-identical to its own call.  For
    damping = 0 this is the exact (pseudo-)inverse and a rank-deficient J
    (any slice) raises SingularMatrix instead of amplifying noise to infinity.
    """
    J = np.asarray(J, dtype=float)
    if J.ndim < 2 or not np.isfinite(J).all():
        raise InvalidInput("pinv_damped wants a finite 2-D matrix or a stack of them")
    damping = _real(damping, "damping", NON_NEGATIVE)
    u, s, vt = np.linalg.svd(J, full_matrices=False)
    if damping == 0.0:
        if s.shape[-1] == 0 or not (s[..., 0] > 0.0).all() or (s[..., -1] / s[..., 0] < 1e-12).any():
            raise SingularMatrix("undamped pseudo-inverse of a singular matrix")
        gains = 1.0 / s
    else:
        gains = s / (s * s + damping * damping)
    return (vt.swapaxes(-1, -2) * gains[..., None, :]) @ u.swapaxes(-1, -2)


# ------------------------------------------------------------- estimators


def _require_fixation_jacobian(J) -> None:
    if np.shape(J) != (6, 9):
        raise InvalidInput(f"J must be the 6x9 fixation Jacobian, got shape {np.shape(J)}")
    if not np.isfinite(J).all():
        raise InvalidInput("J must be finite")


def estimate_kff(J, qdot) -> Twist:
    """Fixation twist predicted from commanded joint rates (feedforward).

    J is the finite 6x9 fixation Jacobian at the current posture and qdot
    the nine commanded rates.  The control loop passes only the commanded
    disturbance rates: the stabilizer's own outputs must not re-enter its
    input.
    """
    _require_fixation_jacobian(J)
    xi = J @ as_joint_array(qdot, 9, name="qdot")
    return Twist(xi[:3], xi[3:])


def estimate_ifb(imu: ImuSample, x_fp) -> Twist:
    """Fixation twist reconstructed from a gyro by the lever-arm rule.

    v = omega x (x_fp - x_imu); omega passes through.  Head translation is
    invisible here -- that blindness is the central limitation of the
    inertial route and is preserved deliberately.
    """
    xi = _estimate_ifb(imu.omega, imu.position, _finite3(x_fp, "x_fp"))
    return Twist(xi[:3], xi[3:])


def _estimate_ifb(omega, position, x_fp) -> list:
    """estimate_ifb's twist as six floats (v, omega), arguments unchecked:
    the lever-arm cross on floats, in np.cross's operand order."""
    (w0, w1, w2), (x0, x1, x2), (p0, p1, p2) = omega.tolist(), x_fp.tolist(), position.tolist()
    r0, r1, r2 = x0 - p0, x1 - p1, x2 - p2
    return [w1 * r2 - w2 * r1, w2 * r0 - w0 * r2, w0 * r1 - w1 * r0, w0, w1, w2]


# ------------------------------------------------------------- compensation


def compensate(twist: Twist, J, config: StabilizerConfig) -> StabilizerCommand:
    """Neck/eye joint rates that cancel the estimated fixation twist.

    J is the finite 6x9 fixation Jacobian at the current posture.  Neck
    joints null the rotational component, eyes null the translational one;
    with config.sequential the eye target also includes the translation the
    new neck command itself induces at the fixation point.  Outputs are
    saturated componentwise on Python floats, with np.clip's result, and
    checked finite there (the products stay in numpy).  A parallel-gaze
    posture has no Jacobian, so the caller holds its previous command instead.
    """
    _require_fixation_jacobian(J)
    neck_trans = J[0:3, 3:6]
    eye_trans = J[0:3, 6:9]

    if config.dof_set == "neck-eyes":
        # neck rotation and eye translation blocks in one SVD call
        neck_pinv, eye_pinv = pinv_damped(np.array((J[3:6, 3:6], eye_trans)), config.damping)
        qdot_neck = -neck_pinv @ twist.omega
    else:
        # the neck block goes uninverted: a singular one must not raise
        eye_pinv = pinv_damped(eye_trans, config.damping)
        qdot_neck = np.zeros(3)

    v_target = twist.v
    if config.sequential:
        v_target = v_target + neck_trans @ qdot_neck
    qdot_eye = -eye_pinv @ v_target

    # np.minimum(np.maximum(x, -lim), lim) on the six floats: NaN passes, to fail the finiteness test
    raw, clip = qdot_neck.tolist() + qdot_eye.tolist(), []
    for i, x in enumerate(raw):  # a loop: before Python 3.12 a comprehension is one more call
        lim = config.neck_rate_limit if i < 3 else config.eye_rate_limit
        clip.append(lim if x >= lim else -lim if x <= -lim else x)
    if not all(map(math.isfinite, clip)):
        name = "qdot_neck" if not all(map(math.isfinite, clip[:3])) else "qdot_eye"
        raise InvalidInput(f"StabilizerCommand.{name} must be a finite 3-vector")
    return _unchecked(StabilizerCommand, qdot_neck=np.array(clip[:3]), qdot_eye=np.array(clip[3:]),
                      saturated=clip != raw)
