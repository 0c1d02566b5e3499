"""Head models: a chain plus IMU attachment and joint naming.

The shipped default is an invented, desk-scale humanoid stand-in (it is NOT
measured from any particular robot): torso yaw/pitch/roll at the waist, neck
pitch/roll/yaw 0.32 m up, and two eyes on a 68 mm baseline 0.40 m above the
waist.  World frame: x forward, y left, z up.  Camera frames follow the
usual vision convention (x right, y down, z = optical axis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import DHLink, KinematicChain, Pose, _is_rigid, as_joint_array, link_frames
from .errors import InvalidInput
from .stereo import HEAD_SEGMENTS, head_layout

# Joint names of the shipped head's torso and neck, base outward.
TRUNK_NAMES = ("torso-yaw", "torso-pitch", "torso-roll", "neck-pitch", "neck-roll", "neck-yaw")
# Fixed names of the three coupled eye degrees of freedom.
EYE_DOF_NAMES = ("eye-tilt", "eye-version", "eye-vergence")
# Script channels that translate the whole chain base (prismatic stage).
BASE_CHANNELS = ("base-x", "base-y", "base-z")


@dataclass(frozen=True)
class HeadModel:
    """A torso-neck-eyes chain bundled with its IMU attachment.

    imu_link must be a neck link (the sensor rides on the head, upstream of
    both eye branches); imu_offset is a finite rigid transform (orthonormal
    rotation) expressed in that link's frame.
    """

    chain: KinematicChain
    imu_link: int
    imu_offset: Pose = field(default_factory=Pose.identity)
    trunk_names: tuple[str, ...] = ()
    name: str = "head"

    def __post_init__(self):
        if self.chain.segments[self.imu_link] != "neck":
            raise InvalidInput("IMU must be attached to a neck link")
        head_layout(self.chain)
        if not _is_rigid(self.imu_offset):
            raise InvalidInput("imu_offset must be finite, with an orthonormal rotation")
        names = tuple(self.trunk_names) or tuple(f"joint-{i}" for i in range(6))
        if len(names) != 6 or len(set(names)) != 6:
            raise InvalidInput("trunk_names must be six distinct joint names")
        object.__setattr__(self, "trunk_names", names)

    @property
    def dof_names(self) -> tuple[str, ...]:
        """Names of the 9 control degrees of freedom, q-vector order."""
        return self.trunk_names + EYE_DOF_NAMES

    def imu_pose(self, q_mech) -> Pose:
        """World pose of the IMU; q_mech must cover links 0..imu_link."""
        q = as_joint_array(q_mech)
        if q.size <= self.imu_link:
            raise InvalidInput(f"q must cover links 0..{self.imu_link} ({self.imu_link + 1} values), got {q.size}")
        return Pose(*_imu_world(self, link_frames(self.chain, q[: self.imu_link + 1])))


def _imu_world(model: HeadModel, frames):
    """(rotation, position) of the IMU in the world, read from the IMU link's
    row of a link_frames stack composed with imu_offset: the one IMU path."""
    rot, pos = frames[model.imu_link, :3, :3], frames[model.imu_link, :3, 3]
    return rot @ model.imu_offset.rot, rot @ model.imu_offset.pos + pos


def default_head_model() -> HeadModel:
    """The shipped stand-in head (see module docstring; not robot-authentic)."""
    pi2 = math.pi / 2
    deg = math.radians
    trunk_lim = dict(q_min=-deg(52), q_max=deg(52), v_max=deg(145))
    tilt_lim = dict(q_min=-deg(42), q_max=deg(42), v_max=deg(345))
    pan_lim = dict(q_min=-deg(52), q_max=deg(52), v_max=deg(345))
    links = (
        DHLink(0.0, 0.0, -pi2, 0.0, **trunk_lim),      # torso-yaw    +z at waist
        DHLink(0.0, 0.0, -pi2, -pi2, **trunk_lim),     # torso-pitch  +y
        DHLink(0.32, 0.06, pi2, 0.0, **trunk_lim),     # torso-roll   +x; carries to neck base
        DHLink(0.0, 0.0, -pi2, 0.0, **trunk_lim),      # neck-pitch   +y at (0.06, 0, 0.32)
        DHLink(0.0, 0.0, pi2, pi2, **trunk_lim),       # neck-roll    +x
        DHLink(0.05, 0.08, -pi2, pi2, **trunk_lim),    # neck-yaw     +z; carries to eye line
        DHLink(0.0, 0.034, -pi2, 0.0, **tilt_lim),     # left tilt    +y at (0.11, 0, 0.40)
        DHLink(0.0, 0.0, pi2, pi2, **pan_lim),         # left pan     -z at (0.11, +0.034, 0.40)
        DHLink(0.0, -0.034, -pi2, 0.0, **tilt_lim),    # right tilt
        DHLink(0.0, 0.0, pi2, pi2, **pan_lim),         # right pan
    )
    chain = KinematicChain(links, segments=HEAD_SEGMENTS)
    return HeadModel(
        chain=chain,
        imu_link=5,
        # head-frame axes at link 5: x=+x_w, y=-z_w, z=+y_w; this offset puts
        # the sensor at world (0.09, 0, 0.43) in the neutral posture.
        imu_offset=Pose(np.eye(3), np.array([-0.02, -0.03, 0.0])),
        trunk_names=TRUNK_NAMES,
        name="default-head",
    )
