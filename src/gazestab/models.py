"""Head models: a chain plus IMU attachment and joint naming.

The shipped default, data/default_head.model, is an invented, desk-scale
humanoid stand-in (it is NOT measured from any particular robot): torso
yaw/pitch/roll at the waist, neck pitch/roll/yaw 0.32 m up, and two eyes on
a 68 mm baseline 0.40 m above the waist.  World frame: x forward, y left,
z up.  Camera frames follow the usual vision convention (x right, y down,
z = optical axis).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .chain import MAX_SCALE, DHLink, KinematicChain, Pose, _is_rigid, as_joint_array, link_frames
from .errors import InvalidInput
from .stereo import head_layout

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
    both eye branches); imu_offset is a rigid transform (orthonormal
    rotation, translation within MAX_SCALE) in that link's frame.  The two
    eye-tilt links are one physical axis, so they must share their limits
    (q_min, q_max, v_max); the pan limits may differ.  Both rules name their
    links in the error's `links`.
    """

    chain: KinematicChain
    imu_link: int
    imu_offset: Pose = field(default_factory=Pose.identity)
    trunk_names: tuple[str, ...] = ()
    name: str = "head"

    def __post_init__(self):
        if self.chain.segments[self.imu_link] != "neck":
            raise InvalidInput("IMU must be attached to a neck link", links=(self.imu_link,))
        lay = head_layout(self.chain)
        tilts = (lay.tilt_left, lay.tilt_right)
        if mismatch := _tilt_mismatch(*(self.chain.links[i] for i in tilts)):
            raise InvalidInput(mismatch, links=tilts)
        if not _is_rigid(self.imu_offset):
            raise InvalidInput(f"imu_offset must be finite, within {MAX_SCALE:g} m, with an orthonormal rotation")
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


def _tilt_mismatch(left: DHLink, right: DHLink, show=repr) -> str | None:
    """The eye-tilt rule's complaint, each value printed by show, or None."""
    for lim in ("q_min", "q_max", "v_max"):
        a, b = getattr(left, lim), getattr(right, lim)
        if a != b:
            return f"the eye tilts are one axis: left tilt {lim} {show(a)} differs from the right's {show(b)}"


def _imu_world(model: HeadModel, frames):
    """(rotation, position) of the IMU in the world, read from the IMU link's
    row of a link_frames stack composed with imu_offset: the one IMU path."""
    rot, pos = frames[model.imu_link, :3, :3], frames[model.imu_link, :3, 3]
    return rot @ model.imu_offset.rot, rot @ model.imu_offset.pos + pos


def default_head_model() -> HeadModel:
    """The shipped stand-in head: the packaged data/default_head.model, read
    by its own path, so neither $GAZESTAB_MODEL_DIR nor the cwd changes it."""
    from .fileio import default_data_dir, parse_model_file  # fileio imports this module

    return parse_model_file(os.path.join(default_data_dir(), "default_head.model"))
