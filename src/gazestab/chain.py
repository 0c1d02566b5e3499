"""Revolute-joint kinematics with standard (distal) DH links.

Conventions
-----------
* Link transform:  A_i(q_i) = Rot_z(q_i + theta_offset_i) @ Trans_z(d_i)
                              @ Trans_x(a_i) @ Rot_x(alpha_i)
* All angles in radians, all lengths in meters.  Degrees exist only at the
  file/CLI boundary.
* Joint i rotates about the z axis of the frame *preceding* link i on its
  path (the chain base pose for the first link).
* A chain is serial except for one optional branch point: links tagged
  "left-eye" never appear on a right-eye path and vice versa.  Every other
  segment tag ("torso", "neck", or the generic "link") is shared prefix, in
  index order, and must precede all eye links.

All functions here are pure; identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInput, OracleFailure

# Cap on the scales the loop multiplies into its floats: link a and d, base
# and IMU offsets, cloud radius (m), focal length (px), gyro noise (rad/s).
# _project's f * x / z (depth z > 1e-9 m, |x| under twice the point's
# distance) and iFB's gyro sample (a few sigma) times its lever arm stay near
# 1e210 at this cap, far from the float limit 1.8e308.
MAX_SCALE = 1e100

# Segment tags understood by the branch logic.
TRUNK_TAGS = ("link", "torso", "neck")
EYE_TAGS = ("left-eye", "right-eye")


def _readonly(a, dtype=float):
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


def _unchecked(cls, **values):
    """A frozen value of dataclass cls holding values as given, without its
    __post_init__ checks: for values built from already-checked ones.  Every
    field must be given."""
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return obj


# ---------------------------------------------------------------- value types


@dataclass(frozen=True)
class Pose:
    """Rigid transform: world_point = rot @ local_point + pos."""

    rot: np.ndarray  # (3, 3), orthonormal
    pos: np.ndarray  # (3,)

    def __post_init__(self):
        object.__setattr__(self, "rot", _readonly(self.rot))
        object.__setattr__(self, "pos", _readonly(self.pos))
        if self.rot.shape != (3, 3) or self.pos.shape != (3,):
            raise InvalidInput("Pose wants a (3,3) rotation and a (3,) translation")

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, T) -> "Pose":
        T = np.asarray(T, dtype=float)
        if T.shape != (4, 4):
            raise InvalidInput(f"homogeneous matrix must be 4x4, got {T.shape}")
        return cls(T[:3, :3], T[:3, 3])

    def matrix(self) -> np.ndarray:
        T = np.eye(4)
        T[:3, :3] = self.rot
        T[:3, 3] = self.pos
        return T

    def compose(self, other: "Pose") -> "Pose":
        return Pose(self.rot @ other.rot, self.rot @ other.pos + self.pos)

    __matmul__ = compose

    def transform(self, points):
        """Map local points (..., 3) into the world frame."""
        points = np.asarray(points, dtype=float)
        return points @ self.rot.T + self.pos

    def inverse(self) -> "Pose":
        rt = self.rot.T
        return Pose(rt, -rt @ self.pos)


def _is_rigid(pose: Pose) -> bool:
    """A translation within MAX_SCALE and a finite orthonormal rotation."""
    rot = pose.rot
    finite = np.isfinite(rot).all() and np.abs(pose.pos).max() <= MAX_SCALE
    return bool(finite and np.abs(rot.T @ rot - np.eye(3)).max() <= 1e-9)


@dataclass(frozen=True)
class DHLink:
    """One revolute link: DH parameters plus joint limits.

    a, d        -- common-normal length and z offset, meters
    alpha       -- twist about x, radians
    theta_offset-- added to the joint variable inside the transform, radians
    q_min/q_max -- position limits, radians (defaults: unlimited)
    v_max       -- velocity magnitude limit, rad/s (default: unlimited)
    """

    a: float = 0.0
    d: float = 0.0
    alpha: float = 0.0
    theta_offset: float = 0.0
    q_min: float = -math.inf
    q_max: float = math.inf
    v_max: float = math.inf

    def __post_init__(self):
        for name in ("a", "d", "alpha", "theta_offset"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInput(f"DHLink.{name} must be finite")
        if not max(abs(self.a), abs(self.d)) <= MAX_SCALE:
            raise InvalidInput(f"DHLink lengths a and d must lie within +-{MAX_SCALE:g} m")
        if not self.q_min <= self.q_max:  # also rejects a NaN limit; +-inf means unlimited
            raise InvalidInput("DHLink limits must be numbers with q_min <= q_max")
        if not self.v_max > 0.0:
            raise InvalidInput("DHLink.v_max must be positive")


def as_joint_array(q, n: int | None = None, *, name: str = "q") -> np.ndarray:
    """Coerce an array-like to a finite 1-D float array."""
    arr = np.asarray(q, dtype=float)
    if arr.ndim != 1:
        raise InvalidInput(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInput(f"{name} contains non-finite entries")
    if n is not None and arr.size != n:
        raise InvalidInput(f"{name} must have length {n}, got {arr.size}")
    return arr


def _finite3(value, name: str) -> np.ndarray:
    """value as a float array of shape (3,); InvalidInput unless finite."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,) or not np.isfinite(arr).all():
        raise InvalidInput(f"{name} must be a finite 3-vector")
    return arr


@dataclass(frozen=True)
class KinematicChain:
    """Ordered DH links under a common base pose, with segment tags."""

    links: tuple[DHLink, ...]
    base_pose: Pose = field(default_factory=Pose.identity)
    segments: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))
        if not self.links:
            raise InvalidInput("KinematicChain needs at least one link")
        segs = tuple(self.segments) if self.segments else ("link",) * len(self.links)
        if len(segs) != len(self.links):
            raise InvalidInput("segments must match links one-to-one")
        for s in segs:
            if s not in TRUNK_TAGS + EYE_TAGS:
                raise InvalidInput(f"unknown segment tag {s!r}")
        seen_eye = False
        for s in segs:
            if s in EYE_TAGS:
                seen_eye = True
            elif seen_eye:
                raise InvalidInput("trunk links must precede all eye links")
        for tag in EYE_TAGS:
            idx = [i for i, s in enumerate(segs) if s == tag]
            if idx and idx != list(range(idx[0], idx[0] + len(idx))):
                raise InvalidInput(f"{tag} links must be contiguous")
        object.__setattr__(self, "segments", segs)
        if not _is_rigid(self.base_pose):
            raise InvalidInput(f"base_pose must be a rigid transform (orthonormal rotation) within {MAX_SCALE:g} m")

    @cached_property
    def n_joints(self) -> int:
        return len(self.links)

    def path_indices(self, link_index: int) -> list[int]:
        """Links contributing to link_index's pose, base outward."""
        return self._path(link_index)[0].tolist()

    def _path(self, link_index: int) -> tuple[np.ndarray, np.ndarray]:
        """link_index's row of the path table, range-checked."""
        if not 0 <= link_index < self.n_joints:
            raise IndexError(f"link_index {link_index} out of range [0, {self.n_joints})")
        return self._paths[link_index]

    @cached_property
    def _paths(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per link, two read-only index arrays: its path (the joints on it,
        base outward) and the link_frames rows those joints turn about, each
        joint's path predecessor (-1, the last row, for the base pose).  A
        path is a prefix of the paths of the links after it on its branch,
        so the predecessors are the path shifted by one."""
        table = []
        for link_index, seg in enumerate(self.segments):
            skip = {"left-eye": "right-eye", "right-eye": "left-eye"}.get(seg)
            path = [i for i in range(link_index + 1) if self.segments[i] != skip]
            table.append((_readonly(path, np.intp), _readonly([-1] + path[:-1], np.intp)))
        return tuple(table)

    @cached_property
    def parents(self) -> tuple[int, ...]:
        """Path predecessor of each link, -1 for the base pose: joint i turns
        about the z axis of link parents[i]'s frame."""
        return tuple(int(rows[-1]) for _, rows in self._paths)

    @cached_property
    def _base_matrix(self) -> np.ndarray:
        """Read-only 4x4 homogeneous matrix of base_pose."""
        return _readonly(self.base_pose.matrix())

    @cached_property
    def _dh(self) -> np.ndarray:
        """Read-only (5, n) rows of each link's theta_offset, cos alpha, sin alpha, a and d."""
        return _readonly([[k.theta_offset, math.cos(k.alpha), math.sin(k.alpha), k.a, k.d] for k in self.links]).T

    @cached_property
    def q_min(self) -> np.ndarray:
        """Read-only per-link lower position limits, link order."""
        return _readonly([link.q_min for link in self.links])

    @cached_property
    def q_max(self) -> np.ndarray:
        """Read-only per-link upper position limits, link order."""
        return _readonly([link.q_max for link in self.links])

    @cached_property
    def v_max(self) -> np.ndarray:
        """Read-only per-link velocity magnitude limits, link order."""
        return _readonly([link.v_max for link in self.links])


# ------------------------------------------------------------ DH elementary


def dh_matrix(link: DHLink, q: float) -> np.ndarray:
    """Homogeneous transform of one link at joint value q (radians)."""
    th = q + link.theta_offset
    return _dh_closed_form(math.cos(th), math.sin(th), math.cos(link.alpha), math.sin(link.alpha), link.a, link.d)


def _dh_closed_form(ct, st, ca, sa, a, d) -> np.ndarray:
    """Rot_z(th) @ Trans_z(d) @ Trans_x(a) @ Rot_x(alpha) from the cos and sin
    of th and alpha: one (4, 4) transform, or a C-contiguous (k, 4, 4) stack
    from (k,) arrays."""
    z = np.zeros_like(ct)
    rows = np.array([ct, -st * ca, st * sa, a * ct, st, ct * ca, -ct * sa, a * st, z, sa, ca, d, z, z, z, z + 1.0])
    return rows.T.reshape(*z.shape, 4, 4)


# ------------------------------------------------------------------ kinematics


def _cross_rows(a, b) -> np.ndarray:
    """np.cross(a, b).T for a (k, 3) stack a and a (k, 3) stack or 3-vector
    b, or np.cross(a, b) for two 3-vectors.

    The products and differences are np.cross's own, in its operand order, so
    the bits match; it skips np.cross's axis moves, which cost more than the
    arithmetic on a few rows.
    """
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def link_frames(chain: KinematicChain, q) -> np.ndarray:
    """(k + 1, 4, 4) world frames of the first k = len(q) links, then the base.

    Each link composes onto its path predecessor (chain.parents), so the
    trunk is walked once for both eye branches.  This is the only place DH
    transforms are composed, each formed as dh_matrix forms it: np.cos and
    np.sin must round as math.cos and math.sin do.
    """
    arr = as_joint_array(q)
    if arr.size > chain.n_joints:
        raise InvalidInput(f"q has {arr.size} values for a {chain.n_joints}-link chain")
    th0, ca, sa, a, d = chain._dh[:, : arr.size]
    th = arr + th0
    dh = _dh_closed_form(np.cos(th), np.sin(th), ca, sa, a, d)
    frames = np.empty((arr.size + 1, 4, 4))
    frames[-1] = chain._base_matrix
    for i in range(arr.size):
        frames[i] = frames[chain.parents[i]] @ dh[i]
    return frames


def forward_kinematics(chain: KinematicChain, q, link_index: int | None = None, *, frames=None) -> Pose:
    """World pose of a link frame (default: the last link).

    q must supply one value per link index up to and including link_index;
    a full-length vector is always fine.  Entries for links off the path
    (the other eye branch) are ignored.  A caller that already holds
    frames = link_frames(chain, q) passes it, and the pose is read from it.
    """
    if link_index is None:
        link_index = chain.n_joints - 1
    chain._path(link_index)  # range-checks link_index
    arr = as_joint_array(q)
    if arr.size < link_index + 1:
        raise InvalidInput(
            f"q must cover links 0..{link_index} ({link_index + 1} values), got {arr.size}"
        )
    frames = link_frames(chain, arr[: link_index + 1]) if frames is None else frames
    return Pose.from_matrix(frames[link_index])


def geometric_jacobian(chain: KinematicChain, q, point, link_index: int | None = None, *, frames=None) -> np.ndarray:
    """6 x n Jacobian of a point rigidly attached to link_index's frame.

    Rows 0..2: d(point)/dq_i = z_i x (point - p_i); rows 3..5: z_i.  Columns
    for joints off the path to link_index are zero.  frames, if given, is
    link_frames(chain, q), read in place of a new walk.
    """
    if link_index is None:
        link_index = chain.n_joints - 1
    path, rows = chain._path(link_index)
    arr = as_joint_array(q, chain.n_joints)
    pt = _finite3(point, "point")
    frames = link_frames(chain, arr) if frames is None else frames
    axes = frames[rows, :3]
    J = np.zeros((6, chain.n_joints))
    J[:3, path] = _cross_rows(axes[:, :, 2], pt - axes[:, :, 3])
    J[3:, path] = axes[:, :, 2].T
    return J


def analytic_axis_jacobian(chain: KinematicChain, q, link_index: int, *, frames=None) -> np.ndarray:
    """3 x n Jacobian of link_index's z axis direction.

    Column i is z_i x z_link for joints on the path, zero otherwise; in
    particular every joint at or downstream of a parallel axis contributes
    nothing, and off-branch columns vanish.  frames, if given, is
    link_frames(chain, q), read in place of a new walk.
    """
    path, rows = chain._path(link_index)
    arr = as_joint_array(q, chain.n_joints)
    frames = link_frames(chain, arr) if frames is None else frames
    J = np.zeros((3, chain.n_joints))
    axes = frames[rows, :3, 2]
    J[:, path] = _cross_rows(axes, frames[link_index, :3, 2])
    return J


def finite_difference_jacobian(f, q0, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of an arbitrary vector map, column by column.

    This is the package's numeric oracle: it shares no code with the analytic
    Jacobians.  Raises OracleFailure (with the column index) if any probe of f
    comes back non-finite.
    """
    arr = as_joint_array(q0, name="q0")
    if not (step > 0 and math.isfinite(step)):
        raise InvalidInput("step must be a positive finite number")
    f0 = np.asarray(f(arr), dtype=float)
    if f0.ndim != 1:
        raise InvalidInput("f must return a 1-D vector")
    J = np.empty((f0.size, arr.size))
    for i in range(arr.size):
        hi = arr.copy()
        lo = arr.copy()
        hi[i] += step
        lo[i] -= step
        fp = np.asarray(f(hi), dtype=float)
        fm = np.asarray(f(lo), dtype=float)
        if not (np.isfinite(fp).all() and np.isfinite(fm).all()):
            raise OracleFailure(f"non-finite probe while differencing column {i}", column=i)
        J[:, i] = (fp - fm) / (2.0 * step)
    return J
