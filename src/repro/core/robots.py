"""Robot models: the five evaluation platforms of Section V.

Each model maps a configuration-space point (the planner's state) to a set
of workspace OBBs (the collision checker's input):

* **2D Mobile** — 3 DoF (x, y, heading), one 2D OBB.
* **3D Drone** — 6 DoF (x, y, z, yaw, pitch, roll), one 3D OBB.
* **ViperX 300** — 5 DoF serial arm, three 3D link OBBs.
* **ROZUM** — 6 DoF serial arm, four 3D link OBBs.
* **xArm-7** — 7 DoF serial arm, seven 3D link OBBs.

The physical arms are substituted by representative serial-chain kinematic
models with the paper's DoF and OBB counts (see DESIGN.md): the planner only
observes the joint-space dimensionality and the workspace boxes produced by
forward kinematics, which is what drives the paper's DoF-scaling results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.geometry.obb import OBB
from repro.geometry.rotations import (
    rotation_2d,
    rotation_about_axis,
    rotation_from_euler,
    rotations_2d_batch,
    rotations_about_axes_batch,
    rotations_from_euler_batch,
    unit_axis,
)

WORKSPACE_SIZE = 300.0  # Section V: 300x300(x300) workspace.


@dataclass(frozen=True)
class LinkSpec:
    """One link of a serial arm.

    Attributes:
        axis: joint rotation axis, expressed in the parent link's frame.
        length: link length along the local +x direction.
        half_width: lateral OBB halfwidth; ``None`` marks a link whose
            geometry is folded into a neighbouring link's box (this is how
            the ViperX/ROZUM models realise fewer OBBs than joints).
    """

    axis: np.ndarray
    length: float
    half_width: Optional[float]


@dataclass(frozen=True)
class RobotModel:
    """A robot the planner can move: C-space bounds plus body geometry.

    Attributes:
        name: registry key (e.g. ``"viperx300"``).
        label: paper display name (e.g. ``"ViperX 300"``).
        dof: configuration-space dimensionality.
        workspace_dim: 2 or 3.
        config_lo / config_hi: C-space sampling bounds, shape ``(dof,)``.
        step_size: default RRT\\* steering step in C-space units.
        body_fn: maps a configuration to the robot's workspace OBBs.
        num_body_obbs: number of OBBs ``body_fn`` returns (paper Table in §V).
    """

    name: str
    label: str
    dof: int
    workspace_dim: int
    config_lo: np.ndarray
    config_hi: np.ndarray
    step_size: float
    body_fn: Callable[[np.ndarray], List[OBB]]
    num_body_obbs: int
    batch_body_fn: Optional[Callable[[np.ndarray], tuple]] = None

    def body_obbs(self, config: np.ndarray) -> List[OBB]:
        """Workspace OBBs of the robot body at ``config``."""
        config = np.asarray(config, dtype=float)
        if config.shape != (self.dof,):
            raise ValueError(f"{self.name} expects {self.dof}-dim configs, got {config.shape}")
        return self.body_fn(config)

    def body_frames_batch(self, configs: np.ndarray) -> tuple:
        """Body OBB frames for a whole batch of configurations at once.

        Returns ``(centers, half_extents, rotations)`` with shapes
        ``(k, B, wd)``, ``(k, B, wd)``, ``(k, B, wd, wd)`` for ``k`` input
        configurations and ``B = num_body_obbs`` bodies — the tensor form
        the batch collision kernels consume.  Robots with a vectorized
        forward-kinematics implementation (``batch_body_fn``) evaluate every
        configuration in one ndarray pass; the generic fallback stacks
        per-configuration :meth:`body_obbs` results.
        """
        configs = np.asarray(configs, dtype=float)
        if configs.ndim != 2 or configs.shape[1] != self.dof:
            raise ValueError(
                f"{self.name} expects (k, {self.dof}) config batches, got {configs.shape}"
            )
        if self.batch_body_fn is not None:
            return self.batch_body_fn(configs)
        k, b, d = configs.shape[0], self.num_body_obbs, self.workspace_dim
        centers = np.empty((k, b, d))
        halves = np.empty((k, b, d))
        rotations = np.empty((k, b, d, d))
        for i in range(k):
            for j, obb in enumerate(self.body_fn(configs[i])):
                centers[i, j] = obb.center
                halves[i, j] = obb.half_extents
                rotations[i, j] = obb.rotation
        return centers, halves, rotations

    def clip(self, config: np.ndarray) -> np.ndarray:
        """Clamp a configuration into the sampling bounds."""
        return np.clip(np.asarray(config, dtype=float), self.config_lo, self.config_hi)


# --------------------------------------------------------------------- mobile


_MOBILE2D_HALF = np.array([8.0, 5.0])
_MOBILE2D_HALF_ROW = _MOBILE2D_HALF.reshape(1, 1, 2)


def _mobile2d_body(config: np.ndarray) -> List[OBB]:
    x, y, theta = config
    return [OBB(np.array([x, y]), _MOBILE2D_HALF.copy(), rotation_2d(theta))]


def _mobile2d_body_batch(configs: np.ndarray) -> tuple:
    centers = configs[:, None, :2]
    halves = _MOBILE2D_HALF_ROW.repeat(configs.shape[0], axis=0)
    rotations = rotations_2d_batch(configs[:, 2])[:, None]
    return centers, halves, rotations


def make_mobile2d() -> RobotModel:
    """3-DoF planar mobile robot bounded by one 2D OBB (Section V)."""
    return RobotModel(
        name="mobile2d",
        label="2D Mobile",
        dof=3,
        workspace_dim=2,
        config_lo=np.array([0.0, 0.0, -math.pi]),
        config_hi=np.array([WORKSPACE_SIZE, WORKSPACE_SIZE, math.pi]),
        step_size=15.0,
        body_fn=_mobile2d_body,
        num_body_obbs=1,
        batch_body_fn=_mobile2d_body_batch,
    )


# ---------------------------------------------------------------------- drone


_DRONE3D_HALF = np.array([7.0, 7.0, 2.5])
_DRONE3D_HALF_ROW = _DRONE3D_HALF.reshape(1, 1, 3)


def _drone3d_body(config: np.ndarray) -> List[OBB]:
    x, y, z, yaw, pitch, roll = config
    rot = rotation_from_euler(yaw, pitch, roll)
    return [OBB(np.array([x, y, z]), _DRONE3D_HALF.copy(), rot)]


def _drone3d_body_batch(configs: np.ndarray) -> tuple:
    centers = configs[:, None, :3]
    halves = _DRONE3D_HALF_ROW.repeat(configs.shape[0], axis=0)
    rotations = rotations_from_euler_batch(
        configs[:, 3], configs[:, 4], configs[:, 5]
    )[:, None]
    return centers, halves, rotations


def make_drone3d() -> RobotModel:
    """6-DoF free-flying drone bounded by one 3D OBB (Section V)."""
    half_pi = math.pi / 2
    return RobotModel(
        name="drone3d",
        label="3D Drone",
        dof=6,
        workspace_dim=3,
        config_lo=np.array([0.0, 0.0, 0.0, -math.pi, -half_pi, -half_pi]),
        config_hi=np.array([WORKSPACE_SIZE] * 3 + [math.pi, half_pi, half_pi]),
        step_size=15.0,
        body_fn=_drone3d_body,
        num_body_obbs=1,
        batch_body_fn=_drone3d_body_batch,
    )


# ----------------------------------------------------------------------- arms


def _arm_body_fn(
    links: Sequence[LinkSpec], base: np.ndarray
) -> Callable[[np.ndarray], List[OBB]]:
    """Build a forward-kinematics body function for a serial arm.

    Frame recursion: joint *i* rotates the link frame about ``links[i].axis``
    (expressed in the parent frame); the link then extends ``length`` along
    the rotated local +x.  A link with a ``half_width`` contributes an OBB
    centred at the link midpoint, aligned with the link frame.
    """

    def body(config: np.ndarray) -> List[OBB]:
        rotation = np.eye(3)
        position = base.copy()
        obbs: List[OBB] = []
        for link, angle in zip(links, config):
            rotation = rotation @ rotation_about_axis(link.axis, float(angle))
            direction = rotation @ np.array([link.length, 0.0, 0.0])
            midpoint = position + 0.5 * direction
            if link.half_width is not None:
                obbs.append(
                    OBB(
                        midpoint,
                        np.array([link.length / 2.0, link.half_width, link.half_width]),
                        rotation,
                    )
                )
            position = position + direction
        return obbs

    return body


def _arm_batch_body_fn(
    links: Sequence[LinkSpec], base: np.ndarray
) -> Callable[[np.ndarray], tuple]:
    """Vectorized forward kinematics over a batch of configurations.

    Same frame recursion as :func:`_arm_body_fn`, evaluated for all ``k``
    configurations at once: per link, the ``k`` joint rotations come from
    one Rodrigues pass and compose via a batched matrix product; the link
    direction is ``length`` times the composed frame's first column (the
    scalar path's ``R @ [length, 0, 0]``).
    """
    half_rows = [
        np.array([link.length / 2.0, link.half_width, link.half_width])
        for link in links
        if link.half_width is not None
    ]
    halves_rows = np.stack(half_rows)[None]
    axes_matrix = np.stack([unit_axis(link.axis) for link in links])
    identity = np.eye(3)

    def body(configs: np.ndarray) -> tuple:
        # The base frame broadcasts against the first link's (k, ...) rows.
        rotation, position = identity, base
        centers, rotations = [], []
        # One Rodrigues pass builds every joint step for every config; the
        # frame chain itself stays a serial product over links.
        steps = rotations_about_axes_batch(axes_matrix, configs)
        for i, link in enumerate(links):
            # Stacked matmul runs the same per-slice kernel as the scalar
            # path's ``rotation @ step``, keeping the frames bit-identical.
            rotation = rotation @ steps[:, i]
            direction = rotation[:, :, 0] * link.length
            midpoint = position + 0.5 * direction
            if link.half_width is not None:
                centers.append(midpoint)
                rotations.append(rotation)
            position = position + direction
        return (
            np.stack(centers, axis=1),
            halves_rows.repeat(configs.shape[0], axis=0),
            np.stack(rotations, axis=1),
        )

    return body


_ARM_BASE = np.array([WORKSPACE_SIZE / 2, WORKSPACE_SIZE / 2, 20.0])
_Z = np.array([0.0, 0.0, 1.0])
_Y = np.array([0.0, 1.0, 0.0])
_X = np.array([1.0, 0.0, 0.0])


def make_viperx300() -> RobotModel:
    """5-DoF arm with three link OBBs (ViperX 300 stand-in; Section V)."""
    links = [
        LinkSpec(_Z, 25.0, None),  # waist: folded into the shoulder link box
        LinkSpec(_Y, 40.0, 6.0),
        LinkSpec(_Y, 40.0, 5.0),
        LinkSpec(_Y, 25.0, None),  # wrist pitch: folded into gripper box
        LinkSpec(_X, 20.0, 4.0),
    ]
    bound = math.pi
    return RobotModel(
        name="viperx300",
        label="ViperX 300",
        dof=5,
        workspace_dim=3,
        config_lo=np.full(5, -bound),
        config_hi=np.full(5, bound),
        step_size=0.35,
        body_fn=_arm_body_fn(links, _ARM_BASE),
        batch_body_fn=_arm_batch_body_fn(links, _ARM_BASE),
        num_body_obbs=3,
    )


def make_rozum() -> RobotModel:
    """6-DoF arm with four link OBBs (ROZUM PULSE stand-in; Section V)."""
    links = [
        LinkSpec(_Z, 25.0, None),
        LinkSpec(_Y, 45.0, 6.0),
        LinkSpec(_Y, 40.0, 5.0),
        LinkSpec(_Z, 25.0, 4.5),
        LinkSpec(_Y, 20.0, None),
        LinkSpec(_X, 18.0, 4.0),
    ]
    bound = math.pi
    return RobotModel(
        name="rozum",
        label="ROZUM",
        dof=6,
        workspace_dim=3,
        config_lo=np.full(6, -bound),
        config_hi=np.full(6, bound),
        step_size=0.35,
        body_fn=_arm_body_fn(links, _ARM_BASE),
        batch_body_fn=_arm_batch_body_fn(links, _ARM_BASE),
        num_body_obbs=4,
    )


def make_xarm7() -> RobotModel:
    """7-DoF arm with seven link OBBs (UFACTORY xArm-7 stand-in; Section V)."""
    links = [
        LinkSpec(_Z, 22.0, 6.0),
        LinkSpec(_Y, 35.0, 6.0),
        LinkSpec(_Z, 30.0, 5.0),
        LinkSpec(_Y, 30.0, 5.0),
        LinkSpec(_Z, 25.0, 4.5),
        LinkSpec(_Y, 20.0, 4.0),
        LinkSpec(_X, 15.0, 3.5),
    ]
    bound = math.pi
    return RobotModel(
        name="xarm7",
        label="xArm-7",
        dof=7,
        workspace_dim=3,
        config_lo=np.full(7, -bound),
        config_hi=np.full(7, bound),
        step_size=0.35,
        body_fn=_arm_body_fn(links, _ARM_BASE),
        batch_body_fn=_arm_batch_body_fn(links, _ARM_BASE),
        num_body_obbs=7,
    )


def make_dualarm13() -> RobotModel:
    """13-DoF dual-arm platform: the top of the paper's 2-13 DoF range.

    Not one of the five Section V evaluation robots — the paper's
    introduction claims RRT\\* (and hence MOPED) covers planning problems up
    to 13 DoF, and this model exercises that envelope: a rotating torso
    carrying two 6-DoF arms (1 + 2x6 joints), ten link OBBs in total.
    """
    torso = [LinkSpec(_Z, 30.0, 8.0)]
    arm_links = [
        LinkSpec(_Y, 35.0, 5.0),
        LinkSpec(_Y, 30.0, 4.5),
        LinkSpec(_Z, 22.0, 4.0),
        LinkSpec(_Y, 18.0, None),
        LinkSpec(_Z, 15.0, 3.5),
        LinkSpec(_X, 12.0, 3.0),
    ]
    base = _ARM_BASE

    def body(config: np.ndarray) -> List[OBB]:
        obbs: List[OBB] = []
        # Torso: joint 0 about z.
        torso_rot = rotation_about_axis(_Z, float(config[0]))
        torso_dir = torso_rot @ np.array([0.0, 0.0, torso[0].length])
        obbs.append(
            OBB(
                base + 0.5 * torso_dir,
                np.array([torso[0].half_width, torso[0].half_width, torso[0].length / 2.0]),
                torso_rot,
            )
        )
        shoulder = base + torso_dir
        # Two arms mounted either side of the torso top.
        for side, joint_offset in ((-1.0, 1), (+1.0, 7)):
            rotation = torso_rot
            position = shoulder + torso_rot @ np.array([0.0, side * 12.0, 0.0])
            for link, angle in zip(arm_links, config[joint_offset : joint_offset + 6]):
                rotation = rotation @ rotation_about_axis(link.axis, float(angle))
                direction = rotation @ np.array([link.length, 0.0, 0.0])
                midpoint = position + 0.5 * direction
                if link.half_width is not None:
                    obbs.append(
                        OBB(
                            midpoint,
                            np.array([link.length / 2.0, link.half_width, link.half_width]),
                            rotation,
                        )
                    )
                position = position + direction
        return obbs

    bound = math.pi
    return RobotModel(
        name="dualarm13",
        label="Dual-arm 13-DoF",
        dof=13,
        workspace_dim=3,
        config_lo=np.full(13, -bound),
        config_hi=np.full(13, bound),
        step_size=0.35,
        body_fn=body,
        num_body_obbs=11,
    )


ROBOT_FACTORIES: Dict[str, Callable[[], RobotModel]] = {
    "mobile2d": make_mobile2d,
    "drone3d": make_drone3d,
    "viperx300": make_viperx300,
    "rozum": make_rozum,
    "xarm7": make_xarm7,
    "dualarm13": make_dualarm13,
}


def get_robot(name: str) -> RobotModel:
    """Look up a robot model by registry name."""
    try:
        return ROBOT_FACTORIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown robot {name!r}; available: {sorted(ROBOT_FACTORIES)}"
        ) from None


def all_robots() -> List[RobotModel]:
    """All five evaluation robots, in the paper's DoF order."""
    return [ROBOT_FACTORIES[name]() for name in
            ("mobile2d", "viperx300", "drone3d", "rozum", "xarm7")]
