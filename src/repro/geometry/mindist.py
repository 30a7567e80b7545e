"""MINDIST: minimum distance from a point to an axis-aligned rectangle.

MINDIST (Cheung & Fu, SIGMOD Record 1998; cited as [14] in the paper) is the
pruning bound driving SI-MBR-Tree neighbor search (Section III-B): the
MINDIST between a query point and an MBR lower-bounds the distance from the
query to *every* point inside the MBR, so any subtree whose MBR MINDIST
exceeds the current best distance can be skipped wholesale.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.aabb import AABB


def mindist_sq_point_to_rect(point: np.ndarray, rect: AABB) -> float:
    """Squared MINDIST from ``point`` to the rectangle ``rect``.

    Per dimension the nearest rectangle coordinate is the clamp of the point
    coordinate into ``[lo, hi]``; MINDIST is the distance to that clamped
    point.  Zero when the point is inside the rectangle.
    """
    point = np.asarray(point, dtype=float)
    if point.shape != rect.lo.shape:
        raise ValueError(f"point dim {point.shape} != rect dim {rect.lo.shape}")
    below = np.maximum(rect.lo - point, 0.0)
    above = np.maximum(point - rect.hi, 0.0)
    gap = np.maximum(below, above)
    return float(gap @ gap)


def mindist_point_to_rect(point: np.ndarray, rect: AABB) -> float:
    """MINDIST from ``point`` to ``rect`` (Euclidean)."""
    return math.sqrt(mindist_sq_point_to_rect(point, rect))


def mindist_sq_point_to_rects(point: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorised squared MINDIST from one point to many rectangles.

    Args:
        point: query, shape ``(dim,)``.
        lo: stacked minimum corners, shape ``(n, dim)``.
        hi: stacked maximum corners, shape ``(n, dim)``.

    Returns:
        Squared MINDIST per rectangle, shape ``(n,)``; row ``i`` is bitwise
        :func:`mindist_sq_point_to_rect` of rectangle ``i``, because
        ``np.vecdot`` reduces each row exactly like the scalar ``gap @ gap``
        (an ``einsum`` contraction does not).
    """
    point = np.asarray(point, dtype=float)
    gap = np.maximum(np.maximum(lo - point, point - hi), 0.0)
    return np.vecdot(gap, gap)
