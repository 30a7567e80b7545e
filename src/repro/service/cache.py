"""LRU plan cache keyed by request digest, with hit/miss accounting.

The request-level analogue of MOPED's multi-level caching: planning is
deterministic given (task, config, smooth) — that tuple's digest
(:meth:`PlanRequest.cache_key`) therefore fully identifies the response,
and a repeat request is a dictionary lookup instead of a planning run.

Only ``status == "ok"`` responses are worth remembering (failures are
scheduling accidents, not properties of the work), so the service layer
never inserts failures; the cache itself stays policy-free and stores what
it is given.

Hit/miss/evict events are also bumped into ``repro_cache_events_total``
(label ``cache="plan"``) when the metrics registry is on, so the plan
cache appears in the ``repro.obs report`` software-cache table, as does
the sharded tier, which reports under ``cache="plan_shard"``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from repro.obs import bump
from repro.service.request import PlanResponse


class PlanCache:
    """Bounded LRU mapping cache keys to :class:`PlanResponse` objects."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._store: "OrderedDict[str, PlanResponse]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        return key in self._store

    def get(self, key: str, request_id: str = "") -> Optional[PlanResponse]:
        """Look up a response; counts a hit or a miss either way.

        Hits are returned as an :meth:`~PlanResponse.as_cache_hit` copy
        relabelled for ``request_id``, so callers can hand the object out
        without aliasing the stored entry.
        """
        entry = self._store.get(key)
        if entry is None:
            self.misses += 1
            bump("repro_cache_events_total", cache="plan", event="miss")
            return None
        self._store.move_to_end(key)
        self.hits += 1
        bump("repro_cache_events_total", cache="plan", event="hit")
        return entry.as_cache_hit(request_id)

    def put(self, key: str, response: PlanResponse) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail if full."""
        if self.capacity == 0:
            return
        if key in self._store:
            self._store.move_to_end(key)
        self._store[key] = response
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)
            self.evictions += 1
            bump("repro_cache_events_total", cache="plan", event="evict")

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, object]:
        """Counters for the telemetry summary."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "size": len(self._store),
            "capacity": self.capacity,
            "evictions": self.evictions,
        }

    def keys(self) -> list:
        """Current cache keys, LRU-oldest first (anti-entropy enumeration).

        Used by the sharded tier's backfill: a rejoining shard asks its
        ring successor for the keys it should own.  No accounting — this
        is introspection, not a lookup.
        """
        return list(self._store)

    def peek(self, key: str) -> Optional[PlanResponse]:
        """Raw entry for ``key`` with no hit/miss accounting or relabel.

        Backfill reads must not skew the hit-rate counters or reorder the
        LRU chain, so this bypasses :meth:`get` entirely.
        """
        return self._store.get(key)

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        self._store.clear()
