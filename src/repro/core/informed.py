"""Informed sampling: the Informed-RRT\\* extension (Gammell et al., [22]).

The paper positions MOPED's optimisations as orthogonal to RRT\\* variants
like biased/informed sampling (Section VI, "RRT\\* and its Variants"): they
reduce the per-sampling cost of collision check and neighbor search, while
informed sampling reduces how many samplings are *useful*.  This module
implements the composition: once a first solution of cost ``c_best`` is
known, samples are drawn uniformly from the prolate hyperspheroid with foci
``start``/``goal``, transverse diameter ``c_best`` and conjugate diameter
``sqrt(c_best^2 - c_min^2)`` — the only region that can still improve the
solution.

The sampler wraps any base sampler (LFSR or numpy): before a solution
exists it delegates; afterwards it draws from the informed set, rejecting
the rare draws that fall outside the configuration-space bounds.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np


def rotation_to_world_frame(start: np.ndarray, goal: np.ndarray) -> np.ndarray:
    """Rotation ``C`` aligning the unit x-axis with the start->goal axis.

    Built via the SVD construction of Gammell et al.:
    ``C = U diag(1, ..., 1, det(U) det(V)) V^T`` with ``M = a1 e1^T``.
    """
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    dim = start.shape[0]
    a1 = goal - start
    norm = np.linalg.norm(a1)
    if norm == 0.0:
        return np.eye(dim)
    a1 = a1 / norm
    m = np.outer(a1, np.eye(dim)[0])
    u, _, vt = np.linalg.svd(m)
    diag = np.ones(dim)
    diag[-1] = np.linalg.det(u) * np.linalg.det(vt)
    return u @ np.diag(diag) @ vt


class InformedSampler:
    """Wraps a base sampler with prolate-hyperspheroid informed sampling.

    Args:
        base: any object with ``sample(counter)`` / ``sample_biased(...)``
            and ``lo``/``hi`` bounds (:class:`~repro.core.rng.NumpySampler`
            or :class:`~repro.core.rng.LFSRSampler`).
        start / goal: the planning problem's foci.
        seed: seed for the ellipsoid draws.
        max_rejections: bound on re-draws when a sample lands outside the
            configuration-space box (the box-clipped draw is returned after
            that many failures so planning always progresses).
    """

    def __init__(self, base, start: np.ndarray, goal: np.ndarray, seed: int = 0,
                 max_rejections: int = 16):
        self.base = base
        self.lo = base.lo
        self.hi = base.hi
        self.dim = base.dim
        self.start = np.asarray(start, dtype=float)
        self.goal = np.asarray(goal, dtype=float)
        self.c_min = float(np.linalg.norm(self.goal - self.start))
        self.center = (self.start + self.goal) / 2.0
        self.rotation = rotation_to_world_frame(self.start, self.goal)
        self.best_cost: Optional[float] = None
        self.max_rejections = max_rejections
        self._rng = np.random.default_rng(seed)
        #: Number of draws served from the informed set (telemetry).
        self.informed_draws = 0

    def update_best_cost(self, cost: float) -> None:
        """Shrink the informed set to the latest best solution cost."""
        if self.best_cost is None or cost < self.best_cost:
            self.best_cost = float(cost)

    def _unit_ball(self) -> np.ndarray:
        """Uniform draw from the d-dimensional unit ball."""
        direction = self._rng.normal(size=self.dim)
        direction /= np.linalg.norm(direction)
        radius = self._rng.random() ** (1.0 / self.dim)
        return radius * direction

    def _informed_sample(self, counter=None) -> np.ndarray:
        """Uniform draw from the current prolate hyperspheroid."""
        if counter is not None:
            counter.record("sample", dim=self.dim)
        c_best = max(self.best_cost, self.c_min + 1e-9)
        r1 = c_best / 2.0
        conj = math.sqrt(max(c_best**2 - self.c_min**2, 0.0)) / 2.0
        radii = np.full(self.dim, conj)
        radii[0] = r1
        for _ in range(self.max_rejections):
            point = self.center + self.rotation @ (radii * self._unit_ball())
            if (point >= self.lo).all() and (point <= self.hi).all():
                self.informed_draws += 1
                return point
        self.informed_draws += 1
        return np.clip(point, self.lo, self.hi)

    def sample(self, counter=None) -> np.ndarray:
        """Draw a configuration (informed once a solution is known)."""
        if self.best_cost is None:
            return self.base.sample(counter=counter)
        return self._informed_sample(counter=counter)

    def sample_biased(self, goal: np.ndarray, bias: float, counter=None) -> np.ndarray:
        """Goal-biased draw; the informed set replaces the uniform branch."""
        if self.best_cost is None:
            return self.base.sample_biased(goal, bias, counter=counter)
        if self._rng.random() < bias:
            if counter is not None:
                counter.record("sample", dim=self.dim)
            return np.asarray(goal, dtype=float).copy()
        return self._informed_sample(counter=counter)
