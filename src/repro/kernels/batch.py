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

Internally every kernel broadcasts over arbitrary leading dimensions, so
the grid functions are thin wrappers that insert axes.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.sat import _EPS

__all__ = [
    "aabb_aabb_grid",
    "aabb_obb_grid",
    "aabb_obb_pairs",
    "edge_aabb_obb_grid",
    "edge_obb_obb_grid",
    "edge_two_stage_counts",
    "masked_aabb_obb_grid",
    "obb_obb_grid",
    "obb_obb_pairs",
    "nearest_index",
    "radius_mask",
    "segment_first_hit",
]


# --------------------------------------------------------------------- AABBs


def aabb_aabb_grid(a_lo: np.ndarray, a_hi: np.ndarray,
                   b_lo: np.ndarray, b_hi: np.ndarray) -> np.ndarray:
    """Interval-overlap SAT of ``R`` boxes against ``M`` boxes: ``(R, M)``."""
    a_lo, a_hi = np.asarray(a_lo, dtype=float), np.asarray(a_hi, dtype=float)
    b_lo, b_hi = np.asarray(b_lo, dtype=float), np.asarray(b_hi, dtype=float)
    separated = (a_lo[:, None, :] > b_hi[None, :, :]) | (
        b_lo[None, :, :] > a_hi[:, None, :]
    )
    return ~separated.any(axis=-1)


# ----------------------------------------------------------------- OBB / OBB

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
    sep = (np.abs(t) > a_h + rb_face).any(axis=-1)

    # Axes L = B0, B1, B2 (b's face normals).
    ra_face = np.einsum("...ij,...i->...j", abs_rot, a_h)
    t_proj = np.einsum("...ij,...i->...j", rot, t)
    sep |= (np.abs(t_proj) > ra_face + b_h).any(axis=-1)

    # Axes L = Ai x Bj: gather the scalar loop's index pattern in one shot.
    ra3 = a_h[..., _I1] * abs_rot[..., _I2, _J] + a_h[..., _I2] * abs_rot[..., _I1, _J]
    rb3 = b_h[..., _J1] * abs_rot[..., _I, _J2] + b_h[..., _J2] * abs_rot[..., _I, _J1]
    dist3 = np.abs(t[..., _I2] * rot[..., _I1, _J] - t[..., _I1] * rot[..., _I2, _J])
    sep |= (dist3 > ra3 + rb3).any(axis=-1)
    return ~sep


# Corner sign pattern of OBB.corners(): bit d of corner c selects +/- axis d.
_CORNER_SIGNS_2D = np.array(
    [[1.0 if (c >> d) & 1 else -1.0 for d in range(2)] for c in range(4)]
)


def _corners_2d(c, h, r) -> np.ndarray:
    """World corners of 2D OBBs over leading dims: ``L + (4, 2)``.

    Same sign ordering and arithmetic as :meth:`repro.geometry.obb.OBB.
    corners` (``center + R @ (signs * half)``); the matrix product is
    written out as its two-term sum, which matches the einsum accumulation
    bit-for-bit while avoiding its strided-iteration dispatch cost.
    """
    local = _CORNER_SIGNS_2D * h[..., None, :]
    rotated = (
        r[..., None, :, 0] * local[..., :, 0, None]
        + r[..., None, :, 1] * local[..., :, 1, None]
    )
    return c[..., None, :] + rotated


def _proj_2d(corners, axes) -> np.ndarray:
    """Project corner sets on frame axes: ``proj[..., c, k] = corners[...,
    c, :] @ (column k of axes)`` as an explicit two-term sum (bit-identical
    to the einsum contraction, several times faster on broadcast operands).
    """
    return (
        corners[..., :, 0, None] * axes[..., None, 0, :]
        + corners[..., :, 1, None] * axes[..., None, 1, :]
    )


def _interval_sep_2d(proj_a, proj_b) -> np.ndarray:
    """Per-axis interval-overlap separation over corner projections."""
    a_min, a_max = proj_a.min(axis=-2), proj_a.max(axis=-2)
    b_min, b_max = proj_b.min(axis=-2), proj_b.max(axis=-2)
    return ((a_max < b_min - _EPS) | (b_max < a_min - _EPS)).any(axis=-1)


def _sat_obb_obb_2d(a_c, a_h, a_r, b_c, b_h, b_r) -> np.ndarray:
    """4-axis corner-projection SAT in 2D over broadcast leading dims.

    Mirrors ``repro.geometry.sat._obb_obb_2d``: project both corner sets on
    each box's two frame axes (the rows of ``R.T``, i.e. the columns of
    ``R``) and test interval overlap with the ``_EPS`` slack.
    """
    corners_a = _corners_2d(a_c, a_h, a_r)     # L + (4, 2)
    corners_b = _corners_2d(b_c, b_h, b_r)
    sep = None
    for axes in (a_r, b_r):
        s = _interval_sep_2d(_proj_2d(corners_a, axes), _proj_2d(corners_b, axes))
        sep = s if sep is None else (sep | s)
    return ~sep


def _sat_aabb_obb_2d(a_c, a_h, b_c, b_h, b_r) -> np.ndarray:
    """2D AABB-OBB SAT: the identity-frame specialisation.

    The scalar reference feeds the AABB through the corner-projection test
    with an identity rotation; projecting any corner set on the identity
    columns reproduces the corner coordinates exactly (the extra products
    contribute only signed zeros, invisible to the interval comparisons),
    and the AABB's own corners are ``center + signs * half`` verbatim.
    Skipping those no-op contractions halves the kernel's heavy work.
    """
    corners_a = a_c[..., None, :] + _CORNER_SIGNS_2D * a_h[..., None, :]
    corners_b = _corners_2d(b_c, b_h, b_r)
    # Axes of a: the world axes — projections are the corner coordinates.
    sep = _interval_sep_2d(corners_a, corners_b)
    # Axes of b: genuine change of basis for both corner sets.
    sep |= _interval_sep_2d(_proj_2d(corners_a, b_r), _proj_2d(corners_b, b_r))
    return ~sep


def _sat_obb_obb(a_c, a_h, a_r, b_c, b_h, b_r) -> np.ndarray:
    if a_c.shape[-1] == 3:
        return _sat_obb_obb_3d(a_c, a_h, a_r, b_c, b_h, b_r)
    return _sat_obb_obb_2d(a_c, a_h, a_r, b_c, b_h, b_r)


def obb_obb_grid(a_c, a_h, a_r, b_c, b_h, b_r) -> np.ndarray:
    """Exact OBB-OBB SAT of ``R`` boxes against ``M`` boxes: ``(R, M)`` bool."""
    return _sat_obb_obb(
        np.asarray(a_c, dtype=float)[:, None, :],
        np.asarray(a_h, dtype=float)[:, None, :],
        np.asarray(a_r, dtype=float)[:, None, :, :],
        np.asarray(b_c, dtype=float)[None, :, :],
        np.asarray(b_h, dtype=float)[None, :, :],
        np.asarray(b_r, dtype=float)[None, :, :, :],
    )


def obb_obb_pairs(a_c, a_h, a_r, b_c, b_h, b_r) -> np.ndarray:
    """Exact OBB-OBB SAT of ``P`` matched pairs: ``(P,)`` bool."""
    return _sat_obb_obb(
        np.asarray(a_c, dtype=float), np.asarray(a_h, dtype=float),
        np.asarray(a_r, dtype=float), np.asarray(b_c, dtype=float),
        np.asarray(b_h, dtype=float), np.asarray(b_r, dtype=float),
    )


# ---------------------------------------------------------------- AABB / OBB


def _sat_aabb_obb_3d(a_c, a_h, b_c, b_h, b_r) -> np.ndarray:
    """15-axis AABB-OBB SAT over broadcast leading dims (3D fast path).

    The scalar ``aabb_intersects_obb`` feeds the AABB into the OBB-OBB test
    as an identity-rotation box, which collapses the change-of-basis product
    to ``b_r`` and the frame-local translation to ``b_c - a_c`` exactly
    (multiplying by the identity adds only signed zeros).  This kernel
    starts from those collapsed values, skipping the two big contractions —
    the same cost advantage the first-stage hardware check exploits.
    """
    t = b_c - a_c
    abs_rot = np.abs(b_r) + _EPS

    # Axes L = A0, A1, A2 (the world axes).
    rb_face = np.einsum("...ij,...j->...i", abs_rot, b_h)
    sep = (np.abs(t) > a_h + rb_face).any(axis=-1)

    # Axes L = B0, B1, B2 (the OBB's face normals).
    ra_face = np.einsum("...ij,...i->...j", abs_rot, a_h)
    t_proj = np.einsum("...ij,...i->...j", b_r, t)
    sep |= (np.abs(t_proj) > ra_face + b_h).any(axis=-1)

    # Axes L = Ai x Bj.
    ra3 = a_h[..., _I1] * abs_rot[..., _I2, _J] + a_h[..., _I2] * abs_rot[..., _I1, _J]
    rb3 = b_h[..., _J1] * abs_rot[..., _I, _J2] + b_h[..., _J2] * abs_rot[..., _I, _J1]
    dist3 = np.abs(t[..., _I2] * b_r[..., _I1, _J] - t[..., _I1] * b_r[..., _I2, _J])
    sep |= (dist3 > ra3 + rb3).any(axis=-1)
    return ~sep


def _aabb_as_obb(lo, hi):
    """Centre / half extents of AABB rows (the identity frame is implicit)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    return center, half


def aabb_obb_grid(box_lo, box_hi, b_c, b_h, b_r) -> np.ndarray:
    """First-stage AABB-OBB SAT: ``M`` boxes against ``R`` OBBs: ``(R, M)``.

    The AABB is the *a* operand (identity rotation), exactly like the scalar
    ``aabb_intersects_obb``.  3D uses the dedicated no-basis-change kernel;
    2D routes through the corner-projection test with an identity frame
    (projecting on the identity columns adds only signed zeros).
    """
    b_c = np.asarray(b_c, dtype=float)[:, None, :]
    b_h = np.asarray(b_h, dtype=float)[:, None, :]
    b_r = np.asarray(b_r, dtype=float)[:, None, :, :]
    center, half = _aabb_as_obb(box_lo, box_hi)
    if center.shape[-1] == 3:
        return _sat_aabb_obb_3d(center[None, :, :], half[None, :, :], b_c, b_h, b_r)
    return _sat_aabb_obb_2d(center[None, :, :], half[None, :, :], b_c, b_h, b_r)


def aabb_obb_pairs(box_lo, box_hi, b_c, b_h, b_r) -> np.ndarray:
    """First-stage AABB-OBB SAT over ``P`` matched pairs: ``(P,)`` bool."""
    b_c = np.asarray(b_c, dtype=float)
    b_h = np.asarray(b_h, dtype=float)
    b_r = np.asarray(b_r, dtype=float)
    center, half = _aabb_as_obb(box_lo, box_hi)
    if center.shape[-1] == 3:
        return _sat_aabb_obb_3d(center, half, b_c, b_h, b_r)
    return _sat_aabb_obb_2d(center, half, b_c, b_h, b_r)


# ------------------------------------------------------ edge-ladder segments
#
# Whole-edge validation evaluates the SAT grids for every interpolated
# waypoint of *several* movements in one stacked pass, then reduces each
# movement's contiguous segment of the flat mask to the scalar loop's
# early-exit statistics.  The reductions below are shared by every checker
# variant; the ``edge_*`` wrappers fuse grid + reduction for the brute
# checkers, and :func:`edge_two_stage_counts` is the two-stage funnel's
# per-edge traversal reduction.


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


def edge_obb_obb_grid(a_c, a_h, a_r, a_lo, a_hi,
                      b_c, b_h, b_r, b_lo, b_hi, row_offsets):
    """Whole-edge brute OBB-OBB SAT: broadphased grid + per-edge reduction.

    ``a_*`` hold the body boxes of every waypoint of every edge (row
    blocks bounded by ``row_offsets``, in body-row units) with their
    derived world AABBs; ``b_*`` the obstacle set and its AABBs.  The
    cheap interval test prunes the grid first — an enclosing-AABB miss
    proves OBB separation, so running the exact SAT only on the surviving
    pairs reproduces the full grid's booleans bit-for-bit at a fraction
    of the arithmetic.  Returns :func:`segment_first_hit` over the scalar
    (waypoint, body, obstacle) iteration order, with ``visited`` counting
    SAT tests.
    """
    mask = aabb_aabb_grid(a_lo, a_hi, b_lo, b_hi)
    rows, cols = np.nonzero(mask)
    if rows.size:
        mask[rows, cols] = obb_obb_pairs(
            a_c[rows], a_h[rows], a_r[rows], b_c[cols], b_h[cols], b_r[cols]
        )
    flat_offsets = np.asarray(row_offsets, dtype=np.intp) * mask.shape[1]
    return segment_first_hit(mask, flat_offsets)


def edge_aabb_obb_grid(box_lo, box_hi, b_c, b_h, b_r, b_lo, b_hi, row_offsets):
    """Whole-edge brute AABB-OBB SAT: broadphased grid + per-edge reduction.

    ``b_*`` are the body boxes (edge row blocks bounded by
    ``row_offsets``) with their derived world AABBs; ``box_lo/hi`` the
    obstacle AABBs.  Same broadphase-then-exact contract as
    :func:`edge_obb_obb_grid` — a body whose AABB misses the obstacle box
    cannot intersect it, so the exact SAT runs only on surviving pairs.
    """
    mask = aabb_aabb_grid(b_lo, b_hi, box_lo, box_hi)
    rows, cols = np.nonzero(mask)
    if rows.size:
        mask[rows, cols] = aabb_obb_pairs(
            box_lo[cols], box_hi[cols], b_c[rows], b_h[rows], b_r[rows]
        )
    flat_offsets = np.asarray(row_offsets, dtype=np.intp) * mask.shape[1]
    return segment_first_hit(mask, flat_offsets)


def masked_aabb_obb_grid(box_lo, box_hi, b_c, b_h, b_r, prefilter):
    """AABB-OBB SAT grid evaluated only where ``prefilter`` is True.

    ``prefilter`` is an ``(R, M)`` boolean matrix (OBB rows x box
    columns); pairs outside it come back False.  Exact wherever the
    caller only consumes the result conjoined with ``prefilter`` — the
    two-stage funnel's short-circuit, where the AABB-AABB stage guards
    the AABB-OBB stage.
    """
    out = np.zeros(prefilter.shape, dtype=bool)
    rows, cols = np.nonzero(prefilter)
    if rows.size:
        out[rows, cols] = aabb_obb_pairs(
            box_lo[cols], box_hi[cols], b_c[rows], b_h[rows], b_r[rows]
        )
    return out


def edge_two_stage_counts(row_hit, n_aabb, n_obb, survivors, row_offsets):
    """Per-edge two-stage traversal totals with the scalar early exit.

    Inputs are per-body-row statistics of the stacked R-tree traversal
    (hit flag, stage-1 AABB-AABB and AABB-OBB test counts, surviving
    candidates); ``row_offsets`` bounds each edge's contiguous row block.
    Returns lists ``(hits, dones, aabb_tot, obb_tot, sur_tot, last_rows)``:
    per-edge hit verdicts, the number of body rows the scalar loop
    processes (through the first hitting row), the stage-1 totals over
    those rows, and the index of the last processed row (the hitting row
    when ``hits[e]``).

    A wave call holds a handful of edges, and a single-edge check one, so
    the per-edge walk runs over Python lists: cheaper there than the fixed
    cost of a vectorized segment reduction.
    """
    bounds = np.asarray(row_offsets).tolist()
    hit_rows = np.flatnonzero(row_hit).tolist()
    aabb, obb, sur = n_aabb.tolist(), n_obb.tolist(), survivors.tolist()
    out = ([], [], [], [], [], [])
    hits, dones, aabb_tot, obb_tot, sur_tot, last_rows = out
    k = 0
    for start, end in zip(bounds, bounds[1:]):
        while k < len(hit_rows) and hit_rows[k] < start:
            k += 1
        hit = k < len(hit_rows) and hit_rows[k] < end
        stop = hit_rows[k] + 1 if hit else end
        hits.append(hit)
        dones.append(stop - start)
        aabb_tot.append(sum(aabb[start:stop]))
        obb_tot.append(sum(obb[start:stop]))
        sur_tot.append(sum(sur[start:stop]))
        last_rows.append(stop - 1)
    return out


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
