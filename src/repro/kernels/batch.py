"""Vectorized batch geometry kernels: one call, many boxes.

Each kernel evaluates one SAT predicate for a whole batch of box pairs in a
single stacked-ndarray pass.  The arithmetic deliberately mirrors
:mod:`repro.geometry.sat` operation for operation — same change-of-basis
products, same ``_EPS`` bias, same corner projections — so the boolean
results agree with the scalar reference on every input (a property-tested
invariant), not merely "up to tolerance".  The scalar loops early-exit at
the first separating axis; SAT's verdict is independent of axis order, so
evaluating all axes and reducing yields identical booleans.

Shapes follow two conventions:

* ``*_grid`` kernels take ``R`` left rows and ``M`` right rows and return an
  ``(R, M)`` boolean matrix (every robot body row against every obstacle).
* ``*_pairs`` kernels take matched ``(P, ...)`` rows and return ``(P,)``
  booleans (gathered survivor pairs of the two-stage funnel).

The 3D SAT broadcasts over arbitrary leading dimensions, so a 3D grid
inserts axes; the 2D SAT runs on per-box terms gathered into flat pair
arrays (:func:`box_terms`), so a 2D grid gathers over an index grid.

No kernel reduces over a short trailing axis (the 2-3 coordinates of a
box, the 4 corners of a rectangle, the 3 or 9 SAT axes of a family):
numpy runs such a reduction element by element, several times slower than
the same work done a whole block at a time.  Each short axis is instead
laid out *leading* in memory, so reducing it is a few elementwise ops over
contiguous blocks.  Min, max and boolean OR do no rounding, so the order
of a reduction never changes its result: these forms are exact.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.geometry.sat import _EPS

__all__ = [
    "BoxTerms",
    "aabb_aabb_grid",
    "aabb_aabb_grid_t",
    "aabb_obb_gathered",
    "aabb_obb_grid",
    "aabb_obb_pairs",
    "aabb_terms",
    "box_terms",
    "first_hit_stops",
    "obb_obb_gathered",
    "obb_obb_grid",
    "obb_obb_pairs",
    "overlap_filtered",
    "nearest_index",
    "radius_mask",
    "segment_first_hit",
    "segment_sums",
]


def _any_last(flags: np.ndarray) -> np.ndarray:
    """``flags.any(axis=-1)``: the short last axis is copied to the front,
    then ORed block by block (see the module notes)."""
    return np.logical_or.reduce(flags.T.copy(), axis=0).T


# --------------------------------------------------------------------- AABBs


def aabb_aabb_grid(a_lo: np.ndarray, a_hi: np.ndarray,
                   b_lo: np.ndarray, b_hi: np.ndarray) -> np.ndarray:
    """Interval-overlap SAT of ``R`` boxes against ``M`` boxes: ``(R, M)``.

    The comparisons fill one ``(dim, R, M)`` plane per dimension, ANDed
    across the leading dimension axis (the scalar ``lo <= hi`` tests).
    """
    return aabb_aabb_grid_t(
        np.asarray(a_lo, dtype=float), np.asarray(a_hi, dtype=float),
        np.asarray(b_lo, dtype=float).T, np.asarray(b_hi, dtype=float).T,
    )


def aabb_aabb_grid_t(a_lo, a_hi, b_lo_t, b_hi_t) -> np.ndarray:
    """:func:`aabb_aabb_grid` with the right boxes given transposed,
    ``(dim, M)``: a fixed box set is transposed once, not per call."""
    overlap = np.less_equal(a_lo.T[:, :, None], b_hi_t[:, None, :], order="C")
    overlap &= np.less_equal(b_lo_t[:, None, :], a_hi.T[:, :, None], order="C")
    # AND over the 2-3 dimension planes, one whole plane at a time.
    out = overlap[0]
    for plane in overlap[1:]:
        out &= plane
    return out


# ------------------------------------------------------------------- 3D SAT

# Flattened (i, j) index grids for the 9 edge-cross axes of the 3D SAT,
# replicating the scalar loop's (i1, i2) = (i+1, i+2) mod 3 pattern.
_I = np.repeat(np.arange(3), 3)
_J = np.tile(np.arange(3), 3)
_I1, _I2 = (_I + 1) % 3, (_I + 2) % 3
_J1, _J2 = (_J + 1) % 3, (_J + 2) % 3


def _sat_obb_obb_3d(a_c, a_h, a_r, b_c, b_h, b_r) -> np.ndarray:
    """Ericson's 15-axis OBB-OBB SAT over broadcast leading dimensions.

    Inputs broadcast to a common leading shape ``L``; centres/halves are
    ``L + (3,)``, rotations ``L + (3, 3)``.  Returns boolean ``L``.
    """
    # Rotation expressing b in a's frame: rot[i, j] = sum_k aR[k,i] bR[k,j].
    rot = np.einsum("...ki,...kj->...ij", a_r, b_r)
    # Translation in a's frame.
    t = np.einsum("...ki,...k->...i", a_r, b_c - a_c)
    abs_rot = np.abs(rot) + _EPS

    # Axes L = A0, A1, A2 (a's face normals).
    rb_face = np.einsum("...ij,...j->...i", abs_rot, b_h)
    sep = _any_last(np.abs(t) > a_h + rb_face)

    # Axes L = B0, B1, B2 (b's face normals).
    ra_face = np.einsum("...ij,...i->...j", abs_rot, a_h)
    t_proj = np.einsum("...ij,...i->...j", rot, t)
    sep |= _any_last(np.abs(t_proj) > ra_face + b_h)

    # Axes L = Ai x Bj: gather the scalar loop's index pattern in one shot.
    ra3 = a_h[..., _I1] * abs_rot[..., _I2, _J] + a_h[..., _I2] * abs_rot[..., _I1, _J]
    rb3 = b_h[..., _J1] * abs_rot[..., _I, _J2] + b_h[..., _J2] * abs_rot[..., _I, _J1]
    dist3 = np.abs(t[..., _I2] * rot[..., _I1, _J] - t[..., _I1] * rot[..., _I2, _J])
    sep |= _any_last(dist3 > ra3 + rb3)
    return ~sep


def _aabb_obb_face_terms_3d(b_h, b_r):
    """The 3D AABB-OBB SAT terms that depend on the OBB alone.

    ``(|R| + EPS, face radii on the world axes, radii on the 9 edge-cross
    axes)``: computed once per OBB and gathered into its pairs, they are
    the values the pair test would otherwise recompute for every box.
    """
    abs_rot = np.abs(b_r) + _EPS
    rb_face = np.einsum("...ij,...j->...i", abs_rot, b_h)
    rb3 = b_h[..., _J1] * abs_rot[..., _I, _J2] + b_h[..., _J2] * abs_rot[..., _I, _J1]
    return abs_rot, rb_face, rb3


def _sat_aabb_obb_3d(a_c, a_h, b_c, b_h, b_r, abs_rot, rb_face, rb3) -> np.ndarray:
    """15-axis AABB-OBB SAT over broadcast leading dims (3D fast path).

    The scalar ``aabb_intersects_obb`` feeds the AABB into the OBB-OBB test
    as an identity-rotation box, which collapses the change-of-basis product
    to ``b_r`` and the frame-local translation to ``b_c - a_c`` exactly
    (multiplying by the identity adds only signed zeros).  This kernel
    starts from those collapsed values, skipping the two big contractions —
    the same cost advantage the first-stage hardware check exploits.  The
    OBB-only terms come from :func:`_aabb_obb_face_terms_3d`.
    """
    t = b_c - a_c

    # Axes L = A0, A1, A2 (the world axes).
    sep = _any_last(np.abs(t) > a_h + rb_face)

    # Axes L = B0, B1, B2 (the OBB's face normals).
    ra_face = np.einsum("...ij,...i->...j", abs_rot, a_h)
    t_proj = np.einsum("...ij,...i->...j", b_r, t)
    sep |= _any_last(np.abs(t_proj) > ra_face + b_h)

    # Axes L = Ai x Bj.
    ra3 = a_h[..., _I1] * abs_rot[..., _I2, _J] + a_h[..., _I2] * abs_rot[..., _I1, _J]
    dist3 = np.abs(t[..., _I2] * b_r[..., _I1, _J] - t[..., _I1] * b_r[..., _I2, _J])
    sep |= _any_last(dist3 > ra3 + rb3)
    return ~sep


# ---------------------------------------------------------------- box terms
#
# A single edge is a handful of rows against a handful of boxes, so its
# SAT pass is priced in array calls, not arithmetic.  The pair tests work
# on flat gathered pair arrays and never recompute, per pair, a term that
# depends on one box only: :func:`box_terms` computes those once per box
# (once per environment for obstacles and R-tree units, once per body row
# per call), and the ``*_gathered`` tests gather them into the pairs.  The
# pair and grid kernels below are the same tests over index ranges, so
# the code the planner runs is the code the kernel benchmark times.


class BoxTerms(NamedTuple):
    """Per-box SAT operands of ``n`` boxes, gathered into pair tests.

    Attributes:
        centers / half_extents: ``(n, d)``.
        rotations: ``(n, d, d)``; None for axis-aligned boxes.
        axes / corners / intervals: 2D only, one row per component and one
            column per box, so that gathering pairs (``take`` along axis 1)
            leaves every component a contiguous row and a pair test is a
            few whole-row ops (:func:`_axes_sep_2d`): ``axes`` ``(16, n)``
            holds ``R00, R01, R10, R11`` each repeated for the 4 corners,
            ``corners`` ``(16, n)`` the corner x coordinates twice then the
            y coordinates twice, and ``intervals`` ``(8, n)`` the corners'
            projections on the box's own axes and on the world axes as
            ``[own lo - EPS, world lo - EPS, own hi, world hi]`` (2 axes
            each; ``lo - EPS`` is the form every SAT comparison reads).
        face: 3D OBBs only, :func:`_aabb_obb_face_terms_3d`.
    """

    centers: np.ndarray
    half_extents: np.ndarray
    rotations: Optional[np.ndarray] = None
    axes: Optional[np.ndarray] = None
    corners: Optional[np.ndarray] = None
    intervals: Optional[np.ndarray] = None
    face: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None


# Corner sign pattern of OBB.corners(): bit d of corner c selects +/- axis d.
_CORNER_SIGNS_2D = np.array(
    [[1.0 if (c >> d) & 1 else -1.0 for d in range(2)] for c in range(4)]
)
# Corner offsets ``signs * h`` in the 8- and 16-row layouts of BoxTerms,
# [s0 h0, s1 h1] and [s0 h0, s1 h1, s0 h0, s1 h1] (4 corners each), as the
# half-extent component and the sign of every row.
_HALF_8 = np.array([0, 1]).repeat(4)
_HALF_16 = np.tile(_HALF_8, 2)
_SIGNS_8 = _CORNER_SIGNS_2D.T.reshape(8, 1)
_SIGNS_16 = np.tile(_SIGNS_8, (2, 1))
_IDENTITY_AXES = np.eye(2).reshape(4, 1).repeat(4, axis=0)


def box_terms(c, h, r=None) -> BoxTerms:
    """:class:`BoxTerms` of the boxes ``(c, h, r)``; ``r`` None for AABBs.

    Same arithmetic as the scalar ``repro.geometry.sat`` 2D test: an
    oriented box's corners are :meth:`~repro.geometry.obb.OBB.corners`'
    ``c + R @ (signs * h)``, written as the two-term sum
    ``c + (R[:, 0] * l0 + R[:, 1] * l1)``; an axis-aligned box's are
    ``c + signs * h`` (the identity product adds only signed zeros) with
    the world axes as its own; a projection on axis ``k`` is
    ``x * R[0, k] + y * R[1, k]``.
    """
    if c.shape[-1] == 3:
        face = None if r is None else _aabb_obb_face_terms_3d(h, r)
        return BoxTerms(c, h, r, face=face)
    n = len(c)
    # Projections on the own axes (rows 0-1) and the corner coordinates,
    # i.e. the projections on the world axes (rows 2-3), by 4 corners.
    values = np.empty((4, 4, n))
    world = values[2:4].reshape(8, n)
    if r is None:
        axes = _IDENTITY_AXES.repeat(n, axis=1)
        np.add(c.T.repeat(4, axis=0), h.T.take(_HALF_8, axis=0) * _SIGNS_8, out=world)
        values[0:2] = values[2:4]
    else:
        axes = r.reshape(n, 4).T.repeat(4, axis=0)
        rotated = (axes * (h.T.take(_HALF_16, axis=0) * _SIGNS_16)).reshape(2, 2, 4, n)
        np.add(c.T.repeat(4, axis=0), (rotated[:, 0] + rotated[:, 1]).reshape(8, n),
               out=world)
    corners = world.reshape(2, 1, 4, n).repeat(2, axis=1).reshape(16, n)
    if r is not None:
        own = axes * corners
        np.add(own[0:8], own[8:16], out=values[0:2].reshape(8, n))
    intervals = np.empty((2, 4, n))
    np.minimum.reduce(values, axis=1, out=intervals[0])
    intervals[0] -= _EPS
    np.maximum.reduce(values, axis=1, out=intervals[1])
    return BoxTerms(c, h, r, axes, corners, intervals.reshape(8, n))


def _aabb_as_obb(lo, hi):
    """Centre / half extents of AABB rows (the identity frame is implicit)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    return center, half


def aabb_terms(lo, hi) -> BoxTerms:
    """:class:`BoxTerms` of AABB rows ``(lo, hi)`` (identity frame)."""
    return box_terms(*_aabb_as_obb(lo, hi))


def _axes_sep_2d(intervals, axes, corners) -> np.ndarray:
    """``(2, P)`` SAT separation of pairs on the two own axes of box S.

    ``intervals`` and ``axes`` are S's gathered :class:`BoxTerms`
    columns, ``corners`` the other box's: the other box's corners
    projected on S's axes (one product and one sum of aligned rows)
    against S's own interval, with the scalar test's ``_EPS`` slack.
    """
    prod = axes * corners
    proj = (prod[0:8] + prod[8:16]).reshape(2, 4, prod.shape[1])
    return ((intervals[4:6] < np.minimum.reduce(proj, axis=1) - _EPS)
            | (np.maximum.reduce(proj, axis=1) < intervals[0:2]))


def aabb_obb_gathered(boxes: BoxTerms, box_idx, obbs: BoxTerms, obb_idx) -> np.ndarray:
    """AABB-OBB SAT of the pairs ``(boxes[box_idx[p]], obbs[obb_idx[p]])``.

    Returns ``(P,)`` booleans, the scalar ``aabb_intersects_obb`` verdicts.
    """
    if boxes.intervals is None:
        return _sat_aabb_obb_3d(
            boxes.centers.take(box_idx, axis=0), boxes.half_extents.take(box_idx, axis=0),
            obbs.centers.take(obb_idx, axis=0), obbs.half_extents.take(obb_idx, axis=0),
            obbs.rotations.take(obb_idx, axis=0),
            *(term.take(obb_idx, axis=0) for term in obbs.face),
        )
    a = boxes.intervals.take(box_idx, axis=1)
    b = obbs.intervals.take(obb_idx, axis=1)
    # World axes: both boxes' corner intervals are precomputed.
    sep = (a[6:8] < b[2:4]) | (b[6:8] < a[2:4])
    # The OBB's axes: the box's corners projected against the OBB's own.
    sep |= _axes_sep_2d(b, obbs.axes.take(obb_idx, axis=1),
                        boxes.corners.take(box_idx, axis=1))
    return ~(sep[0] | sep[1])


def obb_obb_gathered(a: BoxTerms, a_idx, b: BoxTerms, b_idx) -> np.ndarray:
    """Exact OBB-OBB SAT of the pairs ``(a[a_idx[p]], b[b_idx[p]])``.

    Returns ``(P,)`` booleans, the scalar ``obb_intersects_obb`` verdicts.
    """
    if a.intervals is None:
        return _sat_obb_obb_3d(
            a.centers.take(a_idx, axis=0), a.half_extents.take(a_idx, axis=0),
            a.rotations.take(a_idx, axis=0), b.centers.take(b_idx, axis=0),
            b.half_extents.take(b_idx, axis=0), b.rotations.take(b_idx, axis=0),
        )
    sep = _axes_sep_2d(a.intervals.take(a_idx, axis=1), a.axes.take(a_idx, axis=1),
                       b.corners.take(b_idx, axis=1))
    sep |= _axes_sep_2d(b.intervals.take(b_idx, axis=1), b.axes.take(b_idx, axis=1),
                        a.corners.take(a_idx, axis=1))
    return ~(sep[0] | sep[1])


def overlap_filtered(lo, hi, fixed_lo_t, fixed_hi_t, pair_test):
    """``(overlap, verdicts)`` of ``R`` row boxes against ``M`` fixed boxes.

    ``overlap`` is their AABB interval grid (:func:`aabb_aabb_grid_t`, the
    fixed side transposed).  An AABB miss proves the boxes separate, so
    the gathered ``pair_test(rows, cols)`` runs only on the overlapping
    pairs; ``verdicts`` holds its result there and False elsewhere.  Both
    are ``(R, M)`` booleans.
    """
    overlap = aabb_aabb_grid_t(lo, hi, fixed_lo_t, fixed_hi_t)
    verdicts = np.zeros_like(overlap)
    rows, cols = overlap.nonzero()
    if rows.size:
        verdicts[rows, cols] = pair_test(rows, cols)
    return overlap, verdicts


# ------------------------------------------------------- pair / grid kernels
#
# 3D broadcasts the SAT over the grid's two axes; 2D runs the gathered
# tests over index ranges (``arange`` for matched pairs, the row-major
# index grid for ``R x M``).


def _grid_indices(rows: int, cols: int):
    """Row and column index of every cell of a row-major ``rows x cols`` grid."""
    return np.arange(rows).repeat(cols), np.tile(np.arange(cols), rows)


def obb_obb_grid(a_c, a_h, a_r, b_c, b_h, b_r) -> np.ndarray:
    """Exact OBB-OBB SAT of ``R`` boxes against ``M`` boxes: ``(R, M)`` bool."""
    a_c, a_h, a_r, b_c, b_h, b_r = (
        np.asarray(x, dtype=float) for x in (a_c, a_h, a_r, b_c, b_h, b_r))
    if a_c.shape[-1] == 3:
        return _sat_obb_obb_3d(a_c[:, None], a_h[:, None], a_r[:, None],
                               b_c[None], b_h[None], b_r[None])
    a_idx, b_idx = _grid_indices(len(a_c), len(b_c))
    return obb_obb_gathered(box_terms(a_c, a_h, a_r), a_idx,
                            box_terms(b_c, b_h, b_r), b_idx).reshape(len(a_c), len(b_c))


def obb_obb_pairs(a_c, a_h, a_r, b_c, b_h, b_r) -> np.ndarray:
    """Exact OBB-OBB SAT of ``P`` matched pairs: ``(P,)`` bool."""
    a_c, a_h, a_r, b_c, b_h, b_r = (
        np.asarray(x, dtype=float) for x in (a_c, a_h, a_r, b_c, b_h, b_r))
    if a_c.shape[-1] == 3:
        return _sat_obb_obb_3d(a_c, a_h, a_r, b_c, b_h, b_r)
    idx = np.arange(len(a_c))
    return obb_obb_gathered(box_terms(a_c, a_h, a_r), idx, box_terms(b_c, b_h, b_r), idx)


def aabb_obb_grid(box_lo, box_hi, b_c, b_h, b_r) -> np.ndarray:
    """First-stage AABB-OBB SAT: ``M`` boxes against ``R`` OBBs: ``(R, M)``.

    The AABB is the *a* operand (identity rotation), exactly like the scalar
    ``aabb_intersects_obb``.
    """
    b_c, b_h, b_r = (np.asarray(x, dtype=float) for x in (b_c, b_h, b_r))
    center, half = _aabb_as_obb(box_lo, box_hi)
    if center.shape[-1] == 3:
        b_h, b_r = b_h[:, None], b_r[:, None]
        return _sat_aabb_obb_3d(center[None], half[None], b_c[:, None], b_h, b_r,
                                *_aabb_obb_face_terms_3d(b_h, b_r))
    obb_idx, box_idx = _grid_indices(len(b_c), len(center))
    return aabb_obb_gathered(box_terms(center, half), box_idx, box_terms(b_c, b_h, b_r),
                             obb_idx).reshape(len(b_c), len(center))


def aabb_obb_pairs(box_lo, box_hi, b_c, b_h, b_r) -> np.ndarray:
    """First-stage AABB-OBB SAT over ``P`` matched pairs: ``(P,)`` bool."""
    b_c, b_h, b_r = (np.asarray(x, dtype=float) for x in (b_c, b_h, b_r))
    center, half = _aabb_as_obb(box_lo, box_hi)
    if center.shape[-1] == 3:
        return _sat_aabb_obb_3d(center, half, b_c, b_h, b_r,
                                *_aabb_obb_face_terms_3d(b_h, b_r))
    idx = np.arange(len(b_c))
    return aabb_obb_gathered(box_terms(center, half), idx, box_terms(b_c, b_h, b_r), idx)


# ------------------------------------------------------ edge-ladder segments
#
# Whole-edge validation evaluates the SAT tests of every interpolated
# waypoint of *several* movements in one stacked pass, then reduces each
# movement's contiguous block of rows to the scalar loop's early-exit
# statistics.


def segment_first_hit(flat, offsets):
    """Per-segment early-exit scan statistics over a flat boolean mask.

    ``offsets`` (length ``E + 1``) bounds ``E`` contiguous segments of
    ``flat``.  For each segment this returns whether it contains any hit
    and how many entries a scalar left-to-right scan visits: through the
    first ``True``, or the whole segment when clear — the per-segment
    equivalent of the checkers' aggregate ``argmax`` replay, computed for
    all segments with one ``flatnonzero`` + ``searchsorted`` pass.

    Returns ``(hits, visited)``: boolean ``(E,)`` and int64 ``(E,)``.
    """
    flat = np.asarray(flat).ravel()
    offsets = np.asarray(offsets, dtype=np.intp)
    seg_len = (offsets[1:] - offsets[:-1]).astype(np.int64)
    hit_positions = np.flatnonzero(flat)
    if hit_positions.size == 0:
        return np.zeros(len(seg_len), dtype=bool), seg_len
    cuts = np.searchsorted(hit_positions, offsets)
    hits = cuts[1:] > cuts[:-1]
    first = hit_positions[np.minimum(cuts[:-1], hit_positions.size - 1)]
    visited = np.where(hits, first - offsets[:-1] + 1, seg_len)
    return hits, visited.astype(np.int64)


def first_hit_stops(hit_rows: List[int], bounds: List[int]):
    """Where each row block's early-exit walk stops.

    ``bounds`` (length ``E + 1``) bounds ``E`` contiguous blocks of rows;
    ``hit_rows`` lists the rows holding a hit, ascending (repeats allowed).
    Returns lists ``(hits, stops)``: whether block ``b`` holds a hit, and
    one past the last row its walk processes (its first hit row, else its
    end).  A call holds a handful of blocks, so this is Python over lists.
    """
    hits, stops = [], []
    for start, end in zip(bounds, bounds[1:]):
        k = bisect_left(hit_rows, start)
        hit = k < len(hit_rows) and hit_rows[k] < end
        hits.append(hit)
        stops.append(hit_rows[k] + 1 if hit else end)
    return hits, stops


def segment_sums(counts: np.ndarray, starts: List[int], stops: List[int]) -> List[List[int]]:
    """Row sums of ``counts[:, starts[b]:stops[b]]`` per block, as lists.

    ``counts`` is ``(K, R + 1)`` with a zero last column, so a block may
    end at row ``R``; blocks are non-empty, ascending and disjoint.  One
    ``reduceat`` covers every block (its odd slots, the gaps, are dropped).
    """
    cuts = [row for block in zip(starts, stops) for row in block]
    return np.add.reduceat(counts, cuts, axis=1)[:, ::2].T.tolist()


# ------------------------------------------------------- distance reductions


def nearest_index(points: np.ndarray, query: np.ndarray):
    """Index and distance of the row of ``points`` nearest to ``query``.

    One vectorized norm reduction over the SoA coordinate matrix; ties
    resolve to the lowest index, matching a sequential strict-``<`` scan.
    """
    diffs = points - query
    d_sq = np.einsum("nd,nd->n", diffs, diffs)
    idx = int(np.argmin(d_sq))
    return idx, float(np.sqrt(d_sq[idx]))


def radius_mask(points: np.ndarray, query: np.ndarray, radius: float):
    """Squared distances plus the indices within ``radius`` of ``query``."""
    diffs = points - query
    d_sq = np.einsum("nd,nd->n", diffs, diffs)
    return d_sq, np.flatnonzero(d_sq <= radius * radius)
