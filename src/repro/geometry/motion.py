"""Swept-movement discretisation for collision checking.

RRT\\* must verify that a planned movement is collision free *during the
entire movement course* (Section II-C), not just at its endpoints.  Like the
paper's checker, we discretise the configuration-space segment between two
configurations at a fixed resolution and check the robot's body boxes at
every intermediate configuration.

The planner issues one motion check per sampling round (plus one per
choose-parent / rewire candidate), and the steering step bounds segment
lengths, so the same waypoint counts recur constantly.  The interpolation
parameters for a given step count are therefore computed once and cached
(:func:`unit_fractions`); the arrays are marked read-only so a cached row
can never be corrupted by a caller.  Step counts beyond
:data:`UNIT_FRACTION_CACHE_MAX_STEPS` bypass the cache entirely: ladders
that long come from one-off workspace-scale probes, and letting them into
the LRU would thrash out the small recurring planner entries.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate

import numpy as np

#: Largest step count whose fraction ladder is memoised.  Steered planner
#: edges sit far below this (a few waypoints at ``step / 4`` resolution);
#: anything larger is an unbounded ad-hoc query whose ladder is computed
#: fresh so it can never evict the hot entries.
UNIT_FRACTION_CACHE_MAX_STEPS = 4096


def distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two configurations (1-D float arrays).

    ``math.sqrt`` of the difference's dot product with itself: the formula
    ``np.linalg.norm`` evaluates for a 1-D float vector, so the result is
    bitwise ``float(np.linalg.norm(a - b))``, without its argument handling.
    """
    d = a - b
    return math.sqrt(float(d.dot(d)))


def motion_steps(start: np.ndarray, end: np.ndarray, resolution: float) -> int:
    """Number of intermediate configurations for a movement check.

    The count is ``ceil(||end - start|| / resolution)`` with a minimum of 1,
    so even a zero-length movement is checked once (at the endpoint).
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    return _steps(end - start, resolution)


def _steps(delta: np.ndarray, resolution: float) -> int:
    """:func:`motion_steps` of a movement by ``delta`` (the arithmetic of
    :func:`distance`)."""
    return max(1, int(math.ceil(math.sqrt(float(delta.dot(delta))) / resolution)))


@lru_cache(maxsize=512)
def _cached_unit_fractions(steps: int) -> np.ndarray:
    fractions = np.linspace(0.0, 1.0, steps + 1)
    fractions.flags.writeable = False
    return fractions


def unit_fractions(steps: int) -> np.ndarray:
    """``linspace(0, 1, steps + 1)`` for a movement of ``steps`` steps.

    Step counts up to :data:`UNIT_FRACTION_CACHE_MAX_STEPS` share cached
    arrays across calls; longer ladders are computed fresh.  Either way the
    returned array is frozen read-only and its values are exactly what an
    uncached ``np.linspace`` call produces.
    """
    if steps <= UNIT_FRACTION_CACHE_MAX_STEPS:
        return _cached_unit_fractions(steps)
    fractions = np.linspace(0.0, 1.0, steps + 1)
    fractions.flags.writeable = False
    return fractions


def unit_fractions_cache_info():
    """``functools.lru_cache`` statistics of the fraction-ladder cache."""
    return _cached_unit_fractions.cache_info()


def interpolate_configs(start: np.ndarray, end: np.ndarray, resolution: float) -> np.ndarray:
    """Configurations along the straight C-space segment from start to end.

    Returns ``(k, dim)`` with ``k = motion_steps(...) + 1`` rows including
    both endpoints.  The checker walks these from the ``start`` side so that
    collisions near the tree are detected after the fewest checks.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    if start.shape != end.shape:
        raise ValueError("configuration shapes must match")
    steps = motion_steps(start, end, resolution)
    fractions = unit_fractions(steps)
    return start[None, :] + fractions[:, None] * (end - start)[None, :]


def interpolate_edges(starts: np.ndarray, ends: np.ndarray, resolution: float):
    """Concatenated interpolation ladders for a whole batch of movements.

    Returns ``(configs, offsets)`` where ``configs[offsets[e]:offsets[e+1]]``
    is edge ``e``'s ladder and equals ``interpolate_configs(starts[e],
    ends[e], resolution)`` bit-for-bit; ``offsets`` is a list of ints.
    Step counts use the exact :func:`motion_steps` arithmetic per edge (so
    ulp behaviour matches the scalar path); the row construction itself is
    one vectorized multiply-add over the stacked fractions — no per-row
    Python.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    if starts.shape != ends.shape or starts.ndim != 2:
        raise ValueError("starts and ends must be matching (edges, dof) arrays")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    deltas = ends - starts
    counts = [_steps(delta, resolution) + 1 for delta in deltas]
    offsets = [0, *accumulate(counts)]
    if len(counts) == 1:
        # A single-edge check (the W=1 planners' unit of work) skips the
        # repeat/concatenate bookkeeping; the arithmetic is the same.
        return starts[0] + unit_fractions(counts[0] - 1)[:, None] * deltas[0], offsets
    if not counts:
        return np.empty((0, starts.shape[1])), offsets
    fractions = np.concatenate([unit_fractions(c - 1) for c in counts])
    configs = np.repeat(starts, counts, axis=0) + fractions[:, None] * np.repeat(
        deltas, counts, axis=0
    )
    return configs, offsets
