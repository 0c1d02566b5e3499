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

# Segment tags understood by the branch logic.
TRUNK_TAGS = ("link", "torso", "neck")
EYE_TAGS = ("left-eye", "right-eye")


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


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
        if self.q_min > self.q_max:
            raise InvalidInput("DHLink limits reversed: q_min > q_max")
        if not self.v_max > 0.0:
            raise InvalidInput("DHLink.v_max must be positive")


@dataclass(frozen=True)
class JointVector:
    """Joint values plus a layout tag ("generic", "head-dof", "head-mech")."""

    values: np.ndarray
    layout: str = "generic"

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        if self.values.ndim != 1:
            raise InvalidInput("JointVector values must be one-dimensional")
        if not np.all(np.isfinite(self.values)):
            raise InvalidInput("JointVector values must be finite")
        expected = {"head-dof": 9, "head-mech": 10}.get(self.layout)
        if expected is not None and self.values.size != expected:
            raise InvalidInput(
                f"layout {self.layout!r} wants {expected} values, got {self.values.size}"
            )

    def __len__(self):
        return self.values.size


def as_joint_array(q, n: int | None = None, *, name: str = "q") -> np.ndarray:
    """Coerce a JointVector or array-like to a finite 1-D float array."""
    values = q.values if isinstance(q, JointVector) else q
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidInput(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{name} contains non-finite entries")
    if n is not None and arr.size != n:
        raise InvalidInput(f"{name} must have length {n}, got {arr.size}")
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

    @property
    def n_joints(self) -> int:
        return len(self.links)

    def segment_indices(self, tag: str) -> list[int]:
        return [i for i, s in enumerate(self.segments) if s == tag]

    def path_indices(self, link_index: int) -> list[int]:
        """Links contributing to link_index's pose, base outward."""
        if not 0 <= link_index < self.n_joints:
            raise IndexError(f"link_index {link_index} out of range [0, {self.n_joints})")
        seg = self.segments[link_index]
        skip = {"left-eye": "right-eye", "right-eye": "left-eye"}.get(seg)
        return [i for i in range(link_index + 1) if self.segments[i] != skip]

    @cached_property
    def parents(self) -> tuple[int, ...]:
        """Path predecessor of each link, -1 for the base pose: joint i turns
        about the z axis of link parents[i]'s frame."""
        return tuple(([-1] + self.path_indices(i))[-2] for i in range(self.n_joints))


# ------------------------------------------------------------ DH elementary


def dh_matrix(link: DHLink, q: float) -> np.ndarray:
    """Homogeneous transform of one link at joint value q (radians)."""
    th = q + link.theta_offset
    ct, st = math.cos(th), math.sin(th)
    ca, sa = math.cos(link.alpha), math.sin(link.alpha)
    a, d = link.a, link.d
    # Closed form of Rot_z(th) @ Trans_z(d) @ Trans_x(a) @ Rot_x(alpha).
    return np.array(
        [
            [ct, -st * ca, st * sa, a * ct],
            [st, ct * ca, -ct * sa, a * st],
            [0.0, sa, ca, d],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


# ------------------------------------------------------------------ kinematics


def link_frames(chain: KinematicChain, q) -> np.ndarray:
    """(k + 1, 4, 4) world frames of the first k = len(q) links, then the base.

    Each link composes onto its path predecessor (chain.parents), so the
    trunk is walked once for both eye branches.  This is the only place DH
    transforms are composed.
    """
    arr = as_joint_array(q)
    if arr.size > chain.n_joints:
        raise InvalidInput(f"q has {arr.size} values for a {chain.n_joints}-link chain")
    frames = np.empty((arr.size + 1, 4, 4))
    frames[-1] = chain.base_pose.matrix()
    for i in range(arr.size):
        frames[i] = frames[chain.parents[i]] @ dh_matrix(chain.links[i], arr[i])
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
    chain.path_indices(link_index)  # range-checks link_index
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
    path = chain.path_indices(link_index)
    arr = as_joint_array(q, chain.n_joints)
    pt = np.asarray(point, dtype=float)
    if pt.shape != (3,) or not np.all(np.isfinite(pt)):
        raise InvalidInput("point must be a finite 3-vector")
    frames = link_frames(chain, arr) if frames is None else frames
    axes = frames[[chain.parents[i] for i in path], :3]
    J = np.zeros((6, chain.n_joints))
    J[:3, path] = np.cross(axes[:, :, 2], pt - axes[:, :, 3]).T
    J[3:, path] = axes[:, :, 2].T
    return J


def analytic_axis_jacobian(chain: KinematicChain, q, link_index: int, *, frames=None) -> np.ndarray:
    """3 x n Jacobian of link_index's z axis direction.

    Column i is z_i x z_link for joints on the path, zero otherwise; in
    particular every joint at or downstream of a parallel axis contributes
    nothing, and off-branch columns vanish.  frames, if given, is
    link_frames(chain, q), read in place of a new walk.
    """
    path = chain.path_indices(link_index)
    arr = as_joint_array(q, chain.n_joints)
    frames = link_frames(chain, arr) if frames is None else frames
    J = np.zeros((3, chain.n_joints))
    axes = frames[[chain.parents[i] for i in path], :3, 2]
    J[:, path] = np.cross(axes, frames[link_index, :3, 2]).T
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
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise OracleFailure(f"non-finite probe while differencing column {i}", column=i)
        J[:, i] = (fp - fm) / (2.0 * step)
    return J
