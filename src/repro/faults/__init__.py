"""Deterministic, seed-driven fault injection for the planning stack.

The subsystem has three layers:

* :class:`FaultRule` — one fault: *where* (a named site such as
  ``"worker.plan"`` or ``"planner.collision"``), *what* (a kind such as
  ``"crash"`` or ``"corrupt"``), and *when* (probability ``p``, an
  ``after`` warm-up count, an optional ``max_fires`` cap).
* :class:`FaultPlan` — a frozen, serialisable set of rules plus a seed.
  Plans round-trip through a compact spec string
  (``"site:kind@p:max=N:after=N:delay=S;site2:kind2"``) so they can ride
  a CLI flag or a ``PoolConfig`` across a process boundary.
* :class:`FaultInjector` — the runtime: each rule owns a
  :class:`repro.core.rng.LFSR16` stream seeded from ``(plan.seed,
  rule index, scope)``, so firing decisions are bit-deterministic per
  process *scope* (e.g. per worker id) and independent of call
  interleaving across rules.

Zero-overhead contract
----------------------
When no plan is installed the module-level injector is ``None`` and
instrumented sites guard with a single ``is not None`` check (callers are
expected to fetch the injector once per loop, not per iteration).  Rules
that are inert (``p <= 0``) are dropped at injector construction — frozen
rules can never become active — so a site covered only by quiet rules pays
a bare dict miss per call, never a rule-evaluation loop.  ``repro.bench
--check`` bounds the end-to-end cost of the disabled hooks at 1% plus
10 ms of timer slack per planner run.

Side-effect kinds (``crash``, ``hang``, ``slow``, ``error``) are executed
by :meth:`FaultInjector.fire` itself; transport kinds (``corrupt``,
``duplicate``, ``wrong_id``, ``crash_after_send``, ``drop``) are returned
to the caller, which owns the pipe and must interpret them.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.rng import LFSR16
from ..errors import FaultInjected

__all__ = [
    "FaultRule",
    "FaultPlan",
    "FaultInjector",
    "SIDE_EFFECT_KINDS",
    "TRANSPORT_KINDS",
    "SITES",
    "get_injector",
    "set_injector",
    "install_plan",
    "clear",
]

#: Kinds executed inside :meth:`FaultInjector.fire`.
SIDE_EFFECT_KINDS = ("crash", "hang", "slow", "error")

#: Kinds returned to the caller for interpretation (pipe/transport faults).
TRANSPORT_KINDS = ("corrupt", "duplicate", "wrong_id", "crash_after_send", "drop")

#: Known injection sites (documentation + spec validation).  Sites are
#: plain strings so new ones can be added without touching this module,
#: but specs naming an unknown site fail fast unless ``strict=False``.
SITES = (
    "worker.recv",       # worker: after receiving a job, before planning
    "worker.plan",       # worker: inside execute_request, before the planner runs
    "worker.send",       # worker: transport faults on the result send
    "pool.dispatch",     # supervisor: before writing a job to a worker pipe
    "pool.recv",         # supervisor: after reading a result off a pipe
    "planner.round",     # planner: top of each scalar iteration / wave
    "planner.collision", # planner: inside the collision-checker wrapper
    "edge.validate",     # checker: per whole-edge motion validation
    "connect.extend",    # RRT-Connect: per greedy-connect segment/chunk
    "net.accept",        # front end: per accepted connection (drop/slow/error)
    "net.shard_rpc",     # shard client: before each cache-tier round trip
    "net.respond",       # front end: before writing an HTTP response
    "journal.append",    # job journal: per WAL record (crash/drop/corrupt)
    "shard.replicate",   # sharded cache: per replica (non-primary) write
)

_EXIT_CODE = 87          # matches service.worker.CRASH_EXIT_CODE
_HANG_SECONDS = 3600.0   # matches service.worker._HANG_SECONDS


@dataclass(frozen=True)
class FaultRule:
    """One injectable fault at one site.

    Attributes:
        site: injection site name (see :data:`SITES`).
        kind: one of :data:`SIDE_EFFECT_KINDS` or :data:`TRANSPORT_KINDS`.
        p: firing probability per eligible call, in [0, 1].  ``p <= 0``
            makes the rule inert without any RNG draw.
        after: number of eligible calls to let through before the rule
            can fire (warm-up), so e.g. the first N jobs always succeed.
        max_fires: cap on total fires (``None`` = unlimited).
        delay_s: sleep duration for ``kind="slow"``.
    """

    site: str
    kind: str
    p: float = 1.0
    after: int = 0
    max_fires: Optional[int] = None
    delay_s: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in SIDE_EFFECT_KINDS and self.kind not in TRANSPORT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"fault probability must be in [0, 1], got {self.p}")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.max_fires is not None and self.max_fires < 0:
            raise ValueError("max_fires must be >= 0")
        if self.delay_s < 0.0:
            raise ValueError("delay_s must be >= 0")

    def to_spec(self) -> str:
        parts = [f"{self.site}:{self.kind}"]
        if self.p != 1.0:
            parts[0] += f"@{self.p:g}"
        if self.max_fires is not None:
            parts.append(f"max={self.max_fires}")
        if self.after:
            parts.append(f"after={self.after}")
        if self.delay_s != 0.05:
            parts.append(f"delay={self.delay_s:g}")
        return ":".join(parts)

    @classmethod
    def from_spec(cls, spec: str, strict: bool = True) -> "FaultRule":
        """Parse ``"site:kind[@p][:max=N][:after=N][:delay=S]"``."""
        fields = [f.strip() for f in spec.split(":") if f.strip()]
        if len(fields) < 2:
            raise ValueError(f"fault spec needs at least site:kind, got {spec!r}")
        site, head = fields[0], fields[1]
        p = 1.0
        if "@" in head:
            head, p_text = head.split("@", 1)
            p = float(p_text)
        kwargs: Dict[str, object] = {}
        for extra in fields[2:]:
            if "=" not in extra:
                raise ValueError(f"bad fault spec field {extra!r} in {spec!r}")
            key, value = extra.split("=", 1)
            key = key.strip()
            if key == "max":
                kwargs["max_fires"] = int(value)
            elif key == "after":
                kwargs["after"] = int(value)
            elif key == "delay":
                kwargs["delay_s"] = float(value)
            else:
                raise ValueError(f"unknown fault spec field {key!r} in {spec!r}")
        if strict and site not in SITES:
            raise ValueError(f"unknown fault site {site!r} (known: {', '.join(SITES)})")
        return cls(site=site, kind=head, p=p, **kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, serialisable schedule of fault rules plus a seed."""

    seed: int = 1
    rules: Tuple[FaultRule, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        if self.seed <= 0:
            raise ValueError("fault plan seed must be a positive integer")

    def to_spec(self) -> str:
        return ";".join(rule.to_spec() for rule in self.rules)

    @classmethod
    def from_spec(cls, spec: str, seed: int = 1, strict: bool = True) -> "FaultPlan":
        rules = tuple(
            FaultRule.from_spec(part, strict=strict)
            for part in spec.split(";")
            if part.strip()
        )
        return cls(seed=seed, rules=rules)

    def for_sites(self, prefix: str) -> "FaultPlan":
        """Subset of rules whose site starts with ``prefix``."""
        return FaultPlan(
            seed=self.seed,
            rules=tuple(r for r in self.rules if r.site.startswith(prefix)),
        )


def _rule_seed(plan_seed: int, rule_index: int, scope: str) -> int:
    """Deterministic nonzero 16-bit seed per (plan, rule, scope)."""
    mixed = (
        plan_seed * 2654435761
        + 0x9E37 * (rule_index + 1)
        + zlib.crc32(scope.encode("utf-8"))
    ) & 0xFFFF
    return mixed or 0xACE1


class _RuleState:
    __slots__ = ("rule", "lfsr", "calls", "fires")

    def __init__(self, rule: FaultRule, seed: int) -> None:
        self.rule = rule
        self.lfsr = LFSR16(seed)
        self.calls = 0
        self.fires = 0


class FaultInjector:
    """Executes a :class:`FaultPlan` with deterministic per-rule RNG.

    Args:
        plan: the fault schedule.
        scope: a string naming the process/context (e.g. ``"worker3"``);
            it perturbs each rule's RNG seed so distinct workers make
            distinct — but individually reproducible — firing decisions.
        sleep: injected for tests; defaults to :func:`time.sleep`.
    """

    def __init__(self, plan: FaultPlan, scope: str = "", sleep=time.sleep) -> None:
        self.plan = plan
        self.scope = scope
        self._sleep = sleep
        self._by_site: Dict[str, List[_RuleState]] = {}
        for index, rule in enumerate(plan.rules):
            if rule.p <= 0.0:
                # Inert forever (rules are frozen): keep it out of the site
                # table entirely so hot sites covered only by quiet rules
                # pay a bare dict miss, not a rule-evaluation loop.
                continue
            state = _RuleState(rule, _rule_seed(plan.seed, index, scope))
            self._by_site.setdefault(rule.site, []).append(state)
        self.fired: List[Tuple[str, str]] = []

    def has_site(self, site: str) -> bool:
        return site in self._by_site

    def fire(self, site: str, detail: str = "") -> Optional[str]:
        """Evaluate every rule at ``site``; execute or return the fault.

        Returns the transport kind the caller must apply, or ``None`` when
        nothing fired.  Side-effect kinds never return: ``crash`` exits the
        process, ``hang`` sleeps for an hour (the supervisor's deadline
        kills it first), ``error`` raises :class:`FaultInjected`; ``slow``
        sleeps ``delay_s`` then keeps evaluating remaining rules.
        """
        states = self._by_site.get(site)
        if states is None:
            return None
        for state in states:
            rule = state.rule
            state.calls += 1
            if state.calls <= rule.after:
                continue
            if rule.max_fires is not None and state.fires >= rule.max_fires:
                continue
            if rule.p < 1.0 and state.lfsr.next_unit() >= rule.p:
                continue
            state.fires += 1
            self.fired.append((site, rule.kind))
            if rule.kind == "slow":
                self._sleep(rule.delay_s)
                continue
            if rule.kind == "hang":
                self._sleep(_HANG_SECONDS)
                continue
            if rule.kind == "crash":
                os._exit(_EXIT_CODE)
            if rule.kind == "error":
                raise FaultInjected(
                    f"injected fault at {site}" + (f" ({detail})" if detail else "")
                )
            return rule.kind  # transport kinds: caller interprets
        return None

    def counts(self) -> Dict[str, int]:
        """Fires per ``site:kind`` (for assertions and telemetry)."""
        out: Dict[str, int] = {}
        for site, kind in self.fired:
            key = f"{site}:{kind}"
            out[key] = out.get(key, 0) + 1
        return out


# ---------------------------------------------------------------------------
# Process-global injector (mirrors the repro.obs configure/install pattern).
# ``None`` is the steady state: hot paths pay one attribute read + is-None
# check, nothing else.

_INJECTOR: Optional[FaultInjector] = None


def get_injector() -> Optional[FaultInjector]:
    return _INJECTOR


def set_injector(injector: Optional[FaultInjector]) -> Optional[FaultInjector]:
    """Install ``injector`` globally; returns the previous one."""
    global _INJECTOR
    previous = _INJECTOR
    _INJECTOR = injector
    return previous


def install_plan(plan: Optional[FaultPlan], scope: str = "") -> Optional[FaultInjector]:
    """Build and install an injector for ``plan`` (``None`` clears)."""
    injector = FaultInjector(plan, scope=scope) if plan is not None else None
    set_injector(injector)
    return injector


def clear() -> None:
    set_injector(None)
