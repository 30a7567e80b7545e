"""Geometric substrate for MOPED: bounding volumes and collision primitives.

This subpackage implements the geometry kernel the paper's hardware datapath
operates on (Section II-A, IV-A):

* axis-aligned bounding boxes (:mod:`repro.geometry.aabb`),
* oriented bounding boxes in 2D and 3D (:mod:`repro.geometry.obb`),
* rotation-matrix helpers (:mod:`repro.geometry.rotations`),
* Separating Axis Theorem collision tests (:mod:`repro.geometry.sat`),
* MINDIST point-to-rectangle distance (:mod:`repro.geometry.mindist`),
* swept-movement discretisation (:mod:`repro.geometry.motion`).
"""

from repro.geometry.aabb import AABB, aabb_of_points, aabb_union
from repro.geometry.obb import OBB, obb_from_aabb
from repro.geometry.rotations import (
    rotation_2d,
    rotation_from_euler,
    random_rotation_2d,
    random_rotation_3d,
)
from repro.geometry.sat import (
    aabb_intersects_aabb,
    aabb_intersects_obb,
    obb_intersects_obb,
)
from repro.geometry.mindist import mindist_point_to_rect, mindist_sq_point_to_rect
from repro.geometry.motion import distance, interpolate_configs, motion_steps

__all__ = [
    "AABB",
    "OBB",
    "aabb_of_points",
    "aabb_union",
    "obb_from_aabb",
    "rotation_2d",
    "rotation_from_euler",
    "random_rotation_2d",
    "random_rotation_3d",
    "aabb_intersects_aabb",
    "aabb_intersects_obb",
    "obb_intersects_obb",
    "mindist_point_to_rect",
    "mindist_sq_point_to_rect",
    "distance",
    "interpolate_configs",
    "motion_steps",
]
