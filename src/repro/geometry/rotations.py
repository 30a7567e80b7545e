"""Rotation-matrix helpers for 2D and 3D oriented bounding boxes.

The MOPED hardware encodes an OBB's orientation as an explicit rotation
matrix (9 values for 3D, 4 for 2D; Section IV-A).  These helpers build
those matrices from compact angle parameterisations and sample random
orientations for the workload generator (Section V).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np


def rotation_2d(theta: float) -> np.ndarray:
    """Return the 2x2 rotation matrix for a counter-clockwise angle ``theta``.

    Columns are the box's local x/y axes expressed in world coordinates.
    """
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=float)


def rotation_from_euler(yaw: float, pitch: float = 0.0, roll: float = 0.0) -> np.ndarray:
    """Return the 3x3 rotation matrix for intrinsic Z-Y-X Euler angles.

    ``yaw`` rotates about z, ``pitch`` about y, ``roll`` about x, matching the
    paper's 3D drone parameterisation (yaw, pitch, roll; Section V).
    """
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return rz @ ry @ rx


def unit_axis(axis: np.ndarray) -> np.ndarray:
    """``axis / norm``: the unit rotation axis the Rodrigues builders use."""
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        raise ValueError("rotation axis must be non-zero")
    return axis / norm


def rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Return the 3x3 rotation of ``angle`` radians about a unit ``axis``.

    Uses the Rodrigues formula; used by the serial-arm forward kinematics.
    """
    x, y, z = unit_axis(axis)
    c, s = math.cos(angle), math.sin(angle)
    t = 1.0 - c
    return np.array(
        [
            [t * x * x + c, t * x * y - s * z, t * x * z + s * y],
            [t * x * y + s * z, t * y * y + c, t * y * z - s * x],
            [t * x * z - s * y, t * y * z + s * x, t * z * z + c],
        ]
    )


def rotations_2d_batch(thetas: np.ndarray) -> np.ndarray:
    """Vectorized :func:`rotation_2d`: ``(k,)`` angles to ``(k, 2, 2)``."""
    thetas = np.asarray(thetas, dtype=float)
    c, s = np.cos(thetas), np.sin(thetas)
    out = np.empty(thetas.shape + (2, 2))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def rotations_from_euler_batch(yaw: np.ndarray, pitch: np.ndarray,
                               roll: np.ndarray) -> np.ndarray:
    """Vectorized :func:`rotation_from_euler`: ``(k,)`` angle triples to
    ``(k, 3, 3)`` via the same ``Rz @ Ry @ Rx`` product."""
    yaw = np.asarray(yaw, dtype=float)
    k = yaw.shape
    cy, sy = np.cos(yaw), np.sin(yaw)
    cp, sp = np.cos(np.asarray(pitch, dtype=float)), np.sin(np.asarray(pitch, dtype=float))
    cr, sr = np.cos(np.asarray(roll, dtype=float)), np.sin(np.asarray(roll, dtype=float))
    rz = np.zeros(k + (3, 3))
    rz[..., 0, 0], rz[..., 0, 1] = cy, -sy
    rz[..., 1, 0], rz[..., 1, 1] = sy, cy
    rz[..., 2, 2] = 1.0
    ry = np.zeros(k + (3, 3))
    ry[..., 0, 0], ry[..., 0, 2] = cp, sp
    ry[..., 1, 1] = 1.0
    ry[..., 2, 0], ry[..., 2, 2] = -sp, cp
    rx = np.zeros(k + (3, 3))
    rx[..., 0, 0] = 1.0
    rx[..., 1, 1], rx[..., 1, 2] = cr, -sr
    rx[..., 2, 1], rx[..., 2, 2] = sr, cr
    # Stacked ``matmul`` runs the same per-slice kernel as the scalar
    # ``rz @ ry @ rx``, so each slice is bit-identical to rotation_from_euler.
    return rz @ ry @ rx


def rotations_about_axis_batch(axis: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Vectorized :func:`rotation_about_axis`: one axis, ``(k,)`` angles.

    Uses the identical Rodrigues entries so each ``(3, 3)`` slice matches the
    scalar builder's values; used by the batch forward kinematics.
    """
    x, y, z = unit_axis(axis)
    angles = np.asarray(angles, dtype=float)
    c, s = np.cos(angles), np.sin(angles)
    t = 1.0 - c
    out = np.empty(angles.shape + (3, 3))
    out[..., 0, 0] = t * x * x + c
    out[..., 0, 1] = t * x * y - s * z
    out[..., 0, 2] = t * x * z + s * y
    out[..., 1, 0] = t * x * y + s * z
    out[..., 1, 1] = t * y * y + c
    out[..., 1, 2] = t * y * z - s * x
    out[..., 2, 0] = t * x * z - s * y
    out[..., 2, 1] = t * y * z + s * x
    out[..., 2, 2] = t * z * z + c
    return out


def rotations_about_axes_batch(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Vectorized Rodrigues over many axes at once.

    Args:
        axes: ``(L, 3)`` unit rotation axes, each normalised by the caller
            with :func:`unit_axis` (done once, not per call).
        angles: ``(..., L)`` angles, one column per axis.

    Returns:
        ``(..., L, 3, 3)`` rotation matrices; slice ``[..., i, :, :]`` is
        bit-identical to ``rotation_about_axis(axis_i, angles[..., i])``
        for the raw axis ``axis_i`` that ``axes[i] = unit_axis(axis_i)``
        normalises, because the entries use the same Rodrigues expressions.
    """
    axes = np.asarray(axes, dtype=float)
    x, y, z = axes[:, 0], axes[:, 1], axes[:, 2]
    angles = np.asarray(angles, dtype=float)
    c, s = np.cos(angles), np.sin(angles)
    t = 1.0 - c
    out = np.empty(angles.shape + (3, 3))
    out[..., 0, 0] = t * x * x + c
    out[..., 0, 1] = t * x * y - s * z
    out[..., 0, 2] = t * x * z + s * y
    out[..., 1, 0] = t * x * y + s * z
    out[..., 1, 1] = t * y * y + c
    out[..., 1, 2] = t * y * z - s * x
    out[..., 2, 0] = t * x * z - s * y
    out[..., 2, 1] = t * y * z + s * x
    out[..., 2, 2] = t * z * z + c
    return out


def random_rotation_2d(rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Sample a uniformly random 2D rotation matrix."""
    rng = rng if rng is not None else np.random.default_rng()
    return rotation_2d(rng.uniform(-math.pi, math.pi))


def random_rotation_3d(rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Sample a uniformly random 3D rotation matrix (via random quaternion)."""
    rng = rng if rng is not None else np.random.default_rng()
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def is_rotation_matrix(matrix: np.ndarray, atol: float = 1e-8) -> bool:
    """Return True when ``matrix`` is a proper rotation (orthonormal, det=+1)."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape not in ((2, 2), (3, 3)):
        return False
    identity = np.eye(matrix.shape[0])
    if not np.allclose(matrix @ matrix.T, identity, atol=atol):
        return False
    return bool(abs(np.linalg.det(matrix) - 1.0) <= atol)
