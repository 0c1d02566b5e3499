"""Stereo fixation geometry for a coupled two-camera head.

The two optical axes are treated as rays; the fixation point is the midpoint
of the closest-approach segment between them (exact intersection when the
gap is zero).  With unit directions z_l, z_r, origins o_l, o_r and

    cos_axes = z_l . z_r
    num_left  = z_l - cos_axes * z_r          (left closed-form numerator)
    num_right = cos_axes * z_l - z_r          (right closed-form numerator)
    offset    = o_l - o_r
    denom     = cos_axes**2 - 1               (<= 0; 0 iff rays parallel)

the ray parameters of the closest points are

    s_left  = (num_left  . offset) / denom
    s_right = (num_right . offset) / denom

Eye degrees of freedom are mechanically coupled: a common tilt t for both
eyes, plus version/vergence (v, g) mapping to the pan angles as
p_left = v + g/2, p_right = v - g/2.  Differentiation for the analytic
fixation Jacobian is done with respect to the *mechanical* variables
(t, p_left, p_right) -- the common tilt moves both camera chains, and each
pan reaches the other camera's ray parameter through the shared terms above
-- then folded onto (tilt, version, vergence) by the chain rule.  _expand
and _collapse map the coupling on lists of floats, for the plant step.

The head has one shape, HEAD_SEGMENTS: 3 torso links, 3 neck links, then
tilt and pan per eye, left first.  Its joints sit at fixed indices (one
HeadLayout), and a head pass rejects a chain of any other shape.

camera_frames and fixation_full_jacobian read one record per head state, a
_HeadPass: the mechanical q, the link-frame stack, the camera frames (taken
straight off that stack, in the layouts forward_kinematics gives a pose) and
the fixation point (None when the optical axes are parallel), complete and
read-only once built.  The last record is kept: a repeat call on the same
chain object and checked 9-DoF q reuses it (q is still validated), so a
state costs one walk.  The simulation loop and synth_gyro read records
directly.  Each fixation_full_jacobian call computes its J afresh from the
record's link-frame stack: one cross for the camera origins' eye partials,
one geometric_jacobian for the trunk columns and two analytic_axis_jacobian
calls for the optical-axis partials; its BLAS products stay in numpy and
its elementwise tail runs on Python floats.  Whether a J can be reused is the
caller's knowledge: the simulation loop keeps its J while the head holds
still.

Checks sit at the public edge: each public function and constructor checks
what its caller passes.  The camera frames of a pass are products of DH
transforms of a checked q, orthonormal by construction, so they are built
without CameraFrames' orthonormality checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .chain import (
    KinematicChain,
    _cross_rows,
    _finite3,
    _unchecked,
    analytic_axis_jacobian,
    as_joint_array,
    geometric_jacobian,
    link_frames,
)
from .errors import InvalidInput, SingularConfiguration

# Rays whose |denom| falls below this are reported as singular.
SINGULAR_DENOM_TOL = 1e-9
# Largest left/right tilt mismatch collapse_head_q accepts.
TILT_TOL = 1e-9

# Segment tag of each head joint, in chain order.
HEAD_SEGMENTS = ("torso",) * 3 + ("neck",) * 3 + ("left-eye",) * 2 + ("right-eye",) * 2
HEAD_DOF = 9  # torso 3 + neck 3 + (tilt, version, vergence)
HEAD_MECH = len(HEAD_SEGMENTS)  # torso 3 + neck 3 + (tilt, pan) per eye


# ------------------------------------------------- head layout, eye coupling


@dataclass(frozen=True)
class HeadLayout:
    """Mechanical indices of the head's joints inside its chain."""

    trunk: tuple[int, ...]  # torso then neck, 6 indices
    tilt_left: int
    pan_left: int
    tilt_right: int
    pan_right: int
    cam_left: int  # camera frame = last left-eye link
    cam_right: int


_LAYOUT = HeadLayout(trunk=tuple(range(6)), tilt_left=6, pan_left=7, tilt_right=8, pan_right=9, cam_left=7, cam_right=9)
# Index tables: the frames the eye joints (left tilt and pan, right tilt and
# pan) turn about, their cameras, both cameras (left first), and each camera
# axis's (tilt, left pan, right pan) columns.
_EYE_AXIS_ROWS = np.array([_LAYOUT.trunk[-1], _LAYOUT.tilt_left, _LAYOUT.trunk[-1], _LAYOUT.tilt_right])
_EYE_CAM_ROWS = np.array([_LAYOUT.cam_left] * 2 + [_LAYOUT.cam_right] * 2)
_CAM_ROWS = np.array([_LAYOUT.cam_left, _LAYOUT.cam_right])
_LEFT_VARS = np.array([_LAYOUT.tilt_left, _LAYOUT.pan_left, _LAYOUT.pan_right])
_RIGHT_VARS = np.array([_LAYOUT.tilt_right, _LAYOUT.pan_left, _LAYOUT.pan_right])


def head_layout(chain: KinematicChain) -> HeadLayout:
    """The head's joint indices; InvalidInput unless chain has HEAD_SEGMENTS."""
    if chain.segments != HEAD_SEGMENTS:
        got = " ".join(f"{seg}:{len(list(run))}" for seg, run in groupby(chain.segments))
        raise InvalidInput(f"camera/fixation operations need a torso:3 neck:3 left-eye:2 right-eye:2 chain, got {got}")
    return _LAYOUT


def _expand(arr: list) -> list:
    tilt, version, vergence = arr[6:]
    return arr[:6] + [tilt, version + 0.5 * vergence, tilt, version - 0.5 * vergence]


def expand_head_q(q) -> np.ndarray:
    """9 control DoF -> 10 mechanical joint values (chain order)."""
    return np.array(_expand(as_joint_array(q, HEAD_DOF, name="q (head-dof)").tolist()))


def _collapse(arr: list) -> list:
    tilt_left, pan_left, tilt_right, pan_right = arr[6:]
    if abs(tilt_left - tilt_right) > TILT_TOL:
        raise InvalidInput(f"tilt coupling violated: left {tilt_left} vs right {tilt_right}")
    return arr[:6] + [tilt_left, 0.5 * (pan_left + pan_right), pan_left - pan_right]


def collapse_head_q(q_mech) -> np.ndarray:
    """10 mechanical joint values -> 9 control DoF.

    The tilt motors are one physical axis; a mismatch larger than TILT_TOL
    means the caller broke the coupling invariant.
    """
    return np.array(_collapse(as_joint_array(q_mech, HEAD_MECH, name="q (head-mech)").tolist()))


# ---------------------------------------------------------------- camera rays


def _complete_rotation(z: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal completion with the given z column."""
    ref = np.array([0.0, 0.0, 1.0]) if abs(z[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    x = np.cross(ref, z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    return np.column_stack([x, y, z])


@dataclass(frozen=True)
class CameraFrames:
    """World-frame stereo rig state: optical centers, axes, orientations.

    z_* must be unit vectors and equal the third column of rot_*.  The full
    orientations are carried alongside the axis directions because the
    image-plane roll matters to the flow metric.
    """

    o_left: np.ndarray
    o_right: np.ndarray
    z_left: np.ndarray
    z_right: np.ndarray
    rot_left: np.ndarray
    rot_right: np.ndarray

    def __post_init__(self):
        for name in ("o_left", "o_right", "z_left", "z_right"):
            object.__setattr__(self, name, _finite3(getattr(self, name), f"CameraFrames.{name}"))
        for name in ("z_left", "z_right"):
            n = np.linalg.norm(getattr(self, name))
            if abs(n - 1.0) > 1e-9:
                raise InvalidInput(f"CameraFrames.{name} must be unit length (|z|={n})")
        for rname, zname in (("rot_left", "z_left"), ("rot_right", "z_right")):
            R = np.asarray(getattr(self, rname), dtype=float)
            if R.shape != (3, 3):
                raise InvalidInput(f"CameraFrames.{rname} must be 3x3")
            if not np.abs(R.T @ R - np.eye(3)).max() <= 1e-9:  # also rejects NaN and inf
                raise InvalidInput(f"CameraFrames.{rname} must be orthonormal")
            if not np.abs(R[:, 2] - getattr(self, zname)).max() <= 1e-9:
                raise InvalidInput(f"CameraFrames.{rname} third column must equal {zname}")
            object.__setattr__(self, rname, R)

    @classmethod
    def from_rays(cls, o_left, o_right, z_left, z_right) -> "CameraFrames":
        """Build frames from bare rays, normalizing directions."""
        zl = np.asarray(z_left, dtype=float)
        zr = np.asarray(z_right, dtype=float)
        zl = zl / np.linalg.norm(zl)
        zr = zr / np.linalg.norm(zr)
        return cls(
            o_left=np.asarray(o_left, dtype=float),
            o_right=np.asarray(o_right, dtype=float),
            z_left=zl,
            z_right=zr,
            rot_left=_complete_rotation(zl),
            rot_right=_complete_rotation(zr),
        )


class _HeadPass:
    """A head state's geometry: q_mech, its link_frames stack, the
    CameraFrames cams and the FixationResult fx (None for parallel axes),
    all read-only.  It has no __init__, so building one costs no Python
    call."""

    __slots__ = ("q_mech", "link_frames", "cams", "fx")


# (chain, 9-DoF q bytes, record) of the latest _head_pass, swapped as one
# tuple.  A chain is immutable and the record's arrays read-only, so a hit
# may hand the stored record out again.
_last_head_pass = (None, b"", None)


def _head_pass(chain: KinematicChain, q) -> _HeadPass:
    """The _HeadPass of a 9-DoF head state: one DH walk, whose camera rows
    are the camera frames.  A repeat call on the same chain object and q
    returns the last record."""
    global _last_head_pass
    arr = as_joint_array(q, HEAD_DOF, name="q (head-dof)")
    key = arr.tobytes()
    last_chain, last_key, last = _last_head_pass
    if last_chain is chain and last_key == key:
        return last
    if chain.segments != HEAD_SEGMENTS:
        head_layout(chain)  # raises the shape's InvalidInput
    qm = np.array(_expand(arr.tolist()))
    frames = link_frames(chain, qm)
    rots, origins = frames[_CAM_ROWS, :3, :3], frames[_CAM_ROWS, :3, 3]  # C-contiguous copies, left first
    for a in (qm, frames, rots, origins):
        a.setflags(write=False)
    (rot_l, rot_r), (o_l, o_r) = rots, origins
    cams = _unchecked(
        CameraFrames, o_left=o_l, o_right=o_r, z_left=rot_l[:, 2], z_right=rot_r[:, 2], rot_left=rot_l, rot_right=rot_r
    )
    try:
        fx = fixation_point(cams)
    except SingularConfiguration:
        fx = None
    else:
        for a in (fx.point, fx.p_left, fx.p_right):
            a.setflags(write=False)
    head = _HeadPass()
    head.q_mech, head.link_frames, head.cams, head.fx = qm, frames, cams, fx
    _last_head_pass = (chain, key, head)
    return head


def camera_frames(chain: KinematicChain, q) -> CameraFrames:
    """Both camera frames at the given 9-DoF head configuration."""
    return _head_pass(chain, q).cams


# ------------------------------------------------------------- fixation point


@dataclass(frozen=True)
class FixationResult:
    """Closest-approach solution for the two optical rays."""

    point: np.ndarray  # midpoint of the closest-approach segment
    p_left: np.ndarray  # closest point on the left ray
    p_right: np.ndarray
    s_left: float  # signed ray parameters (meters along each axis)
    s_right: float

    @property
    def gap(self) -> float:
        """||p_left - p_right||"""
        return float(np.linalg.norm(self.p_left - self.p_right))


def fixation_point(frames: CameraFrames) -> FixationResult:
    """Fixation point from the closed-form closest-approach solution.

    Raises SingularConfiguration when the rays are numerically parallel
    (|cos_axes^2 - 1| < SINGULAR_DENOM_TOL): there is no unique closest pair.
    """
    zl, zr = frames.z_left, frames.z_right
    ol, orr = frames.o_left, frames.o_right
    cos_axes = float(zl @ zr)
    denom = cos_axes * cos_axes - 1.0
    if abs(denom) < SINGULAR_DENOM_TOL:
        raise SingularConfiguration(
            f"optical axes are parallel to within tolerance (denom={denom:.3e})",
            denom=denom,
        )
    offset = ol - orr
    s_left = float((zl - cos_axes * zr) @ offset) / denom
    s_right = float((cos_axes * zl - zr) @ offset) / denom
    p_left = ol + s_left * zl
    p_right = orr + s_right * zr
    return FixationResult(
        point=0.5 * (p_left + p_right),
        p_left=p_left,
        p_right=p_right,
        s_left=s_left,
        s_right=s_right,
    )


# --------------------------------------------------------- analytic Jacobian


def eye_jacobian(chain: KinematicChain, q) -> np.ndarray:
    """3x3 fixation-point Jacobian w.r.t. (tilt, version, vergence)."""
    return fixation_full_jacobian(chain, q)[:3, 6:9]


def fixation_full_jacobian(chain: KinematicChain, q) -> np.ndarray:
    """6x9 fixation twist Jacobian over (torso, neck, eye DoF).

    Rows 0..2 map joint rates to fixation-point translation; rows 3..5 to the
    head's angular velocity.  Trunk columns use the rigid-point rule (the
    whole stereo construction rides rigidly on the head); eye columns
    contribute no rotation.

    The eye columns differentiate every ray quantity against the three
    mechanical eye variables (common tilt, left pan, right pan): the tilt
    partial sums both camera chains' contributions, and the cross partials
    (left point vs right pan and vice versa) are kept -- they enter through
    the shared cos/offset terms.  The midpoint x = (p_left + p_right)/2 then
    folds onto (tilt, version, vergence) by the chain rule:

        d x/d tilt     = (dPl_t + dPr_t) / 2
        d x/d version  = (dPl_l + dPl_r + dPr_l + dPr_r) / 2
        d x/d vergence = (dPl_l - dPl_r + dPr_l - dPr_r) / 4

    Each call returns a freshly computed, writable J.  Raises
    SingularConfiguration for parallel optical axes.
    """
    head = _head_pass(chain, q)
    qm, frames, fr, fx = head.q_mech, head.link_frames, head.cams, head.fx
    if fx is None:
        fixation_point(fr)  # raises the pass's SingularConfiguration
    ol, zl, orr, zr = fr.o_left, fr.z_left, fr.o_right, fr.z_right

    # Each camera's origin and axis partials against (tilt, left pan, right
    # pan), read from the one pass: tilt is the camera's own tilt joint, and
    # the other eye's pan is off its path (a zero column).  Eye joint m moves
    # an origin by z_m x (o_cam - p_m) about frame chain.parents[m], formed as
    # geometric_jacobian forms it, all four in one cross.  The products
    # below stay in numpy on C-ordered blocks (OpenBLAS fuses multiply-adds,
    # and F order rounds differently); the elementwise rest runs on floats,
    # each +, - and * as numpy's would round it, in plain loops.
    axes = frames[_EYE_AXIS_ROWS, :3]
    d_eye = _cross_rows(axes[:, :, 2], frames[_EYE_CAM_ROWS, :3, 3] - axes[:, :, 3]).tolist()  # 3 rows of 4
    d_zl = np.take(analytic_axis_jacobian(chain, qm, _LAYOUT.cam_left, frames=frames), _LEFT_VARS, axis=1)
    d_zr = np.take(analytic_axis_jacobian(chain, qm, _LAYOUT.cam_right, frames=frames), _RIGHT_VARS, axis=1)

    cos_axes = float(zl @ zr)
    denom = cos_axes * cos_axes - 1.0  # nonzero: fixation_point checked it
    offset = ol - orr
    d_cos = (d_zl.T @ zr + d_zr.T @ zl).tolist()
    zl_f, zr_f, d_zl_f, d_zr_f = zl.tolist(), zr.tolist(), d_zl.tolist(), d_zr.tolist()
    d_ol, d_or, d_offset, d_num_left, d_num_right = [], [], [], [], []
    for (e0, e1, e2, e3), z_l, z_r, a_l, a_r in zip(d_eye, zl_f, zr_f, d_zl_f, d_zr_f):
        d_ol.append([e0, e1, 0.0])
        d_or.append([e2, 0.0, e3])
        d_offset.append([e0 - e2, e1, 0.0 - e3])  # d_ol - d_or: e1 - 0.0 is e1, 0.0 - e3 is not -e3 at e3 = 0.0
        row_left, row_right = [], []
        for al, ar, dc in zip(a_l, a_r, d_cos):
            row_left.append(al - z_r * dc - cos_axes * ar)
            row_right.append(z_l * dc + cos_axes * al - ar)
        d_num_left.append(row_left)
        d_num_right.append(row_right)
    d_offset = np.array(d_offset)

    # Each ray parameter's partials d[(num.offset)/denom] by the quotient
    # rule (d denom = 2 cos_axes d_cos), then its closest point's partials.
    c2, denom2, dP = 2.0 * cos_axes, denom * denom, []
    sides = ((zl - cos_axes * zr, d_num_left, d_ol, zl_f, d_zl_f, fx.s_left),
             (cos_axes * zl - zr, d_num_right, d_or, zr_f, d_zr_f, fx.s_right))
    for num, d_num, d_o, z, d_z, s in sides:
        d_dot = (np.array(d_num).T @ offset + d_offset.T @ num).tolist()
        num_offset, quot, d_p = float(num @ offset), [], []
        for dd, dc in zip(d_dot, d_cos):
            quot.append((dd * denom - num_offset * (c2 * dc)) / denom2)
        for o_row, zi, dz_row in zip(d_o, z, d_z):
            row = []
            for o, qt, dz in zip(o_row, quot, dz_row):
                row.append(o + zi * qt + s * dz)
            d_p.append(row)
        dP.append(d_p)

    J = np.zeros((6, HEAD_DOF))
    J[:, :6] = geometric_jacobian(chain, qm, fx.point, _LAYOUT.trunk[-1], frames=frames)[:, :6]
    eye = []
    for (l0, l1, l2), (r0, r1, r2) in zip(*dP):
        eye.append([0.5 * (l0 + r0), 0.5 * (l1 + l2 + r1 + r2), 0.25 * (l1 - l2 + r1 - r2)])
    J[:3, 6:9] = eye
    return J
