"""HTTP/JSON wire format for planning requests and responses.

The network layer speaks plain JSON built from the same primitives the
persistence layer already pins down: tasks serialise through
:func:`repro.io.task_to_dict`, planner configs through ``dataclasses.
asdict`` (every field is a JSON scalar), and responses through
:meth:`~repro.service.request.PlanResponse.to_dict`.  Anything that
round-trips here hashes to the same :meth:`PlanRequest.cache_key` on both
sides of the wire, which is what lets N front-end processes share one
cache tier.

Two request body shapes are accepted by ``POST /plan``:

* **full** — ``{"task": {...}, "config": {...}, "smooth": false, ...}``: the
  caller ships a complete task and planner configuration.
* **spec** — ``{"spec": {"robot": "mobile2d", "obstacles": 8, "seed": 3,
  ...}}``: a compact generator spec the server expands deterministically
  via :func:`repro.workloads.random_task` + :func:`repro.core.moped.
  config_for_variant`.  Identical specs expand to identical requests (and
  therefore identical cache keys), so load generators can drive realistic
  hit rates with tiny payloads.

``HTTP_STATUS_FOR`` maps the service's terminal statuses onto HTTP codes;
429 (admission shed) is deliberately *not* in the map — shedding happens
before a request becomes a job, so it never produces a ``PlanResponse``.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, Optional

from repro.core.config import PlannerConfig
from repro.errors import InvalidRequest
from repro.service.request import STATUSES, PlanRequest, PlanResponse

__all__ = [
    "HTTP_STATUS_FOR",
    "WIRE_VERSION",
    "http_status_for",
    "request_from_wire",
    "request_to_wire",
    "response_from_wire",
    "response_to_wire",
    "spec_to_request",
]

#: Wire schema version, echoed in every response envelope so a newer
#: server and an older harness can detect a mismatch instead of
#: mis-parsing each other.
WIRE_VERSION = 1

#: Terminal service status -> HTTP response code.  ``ok``/``degraded``
#: are successes (degraded is a *served* best-so-far result, not an
#: error); ``invalid`` is the caller's fault; ``timeout`` maps to the
#: gateway-timeout family; the crash/poison/error family is a 500.
#: ``cancelled`` (a portfolio race member stopped because another planner
#: already won) is 503: the service declined to finish this job, the
#: caller holds the winner's answer under the parent request id.
HTTP_STATUS_FOR: Dict[str, int] = {
    "ok": 200,
    "degraded": 200,
    "invalid": 400,
    "timeout": 504,
    "cancelled": 503,
    "crash": 500,
    "error": 500,
    "poison": 500,
}


def http_status_for(status: str) -> int:
    """HTTP code for a terminal service status (unknown statuses -> 500)."""
    return HTTP_STATUS_FOR.get(status, 500)


# ------------------------------------------------------------------ request


def request_to_wire(request: PlanRequest) -> Dict:
    """``PlanRequest`` -> JSON-safe dict (full form)."""
    from repro.io import task_to_dict

    out: Dict[str, object] = {
        "task": task_to_dict(request.task),
        "config": asdict(request.config),
        "smooth": request.smooth,
        "request_id": request.request_id,
    }
    if request.timeout_s is not None:
        out["timeout_s"] = request.timeout_s
    if request.portfolio is not None:
        out["portfolio"] = list(request.portfolio)
    return out


def spec_to_request(spec: Dict, request_id: str = "") -> PlanRequest:
    """Expand a compact generator spec into a full :class:`PlanRequest`.

    Recognised keys (all optional except ``seed`` defaults to 0):
    ``robot``, ``obstacles``, ``seed``, ``variant``, ``samples``,
    ``goal_bias``, ``smooth``, ``timeout_s``, ``deadline_s``,
    ``mode`` (``"rrtstar"``/``"connect"``) and ``portfolio`` (a list of
    planner names, or ``["auto"]``, racing the request).  Unknown keys are
    rejected so a typo degrades to a 400, not to a silently-different
    workload.
    """
    from repro.core.moped import config_for_variant
    from repro.workloads import random_task

    known = {
        "robot", "obstacles", "seed", "variant", "samples", "goal_bias",
        "smooth", "timeout_s", "deadline_s", "mode", "portfolio",
    }
    unknown = set(spec) - known
    if unknown:
        raise InvalidRequest(f"unknown spec keys: {sorted(unknown)}")
    seed = int(spec.get("seed", 0))
    task = random_task(
        str(spec.get("robot", "mobile2d")),
        int(spec.get("obstacles", 8)),
        seed=seed,
        task_id=seed,
    )
    config = config_for_variant(
        str(spec.get("variant", "full")),
        max_samples=int(spec.get("samples", 400)),
        seed=seed,
        goal_bias=float(spec.get("goal_bias", 0.1)),
        deadline_s=spec.get("deadline_s"),
        mode=str(spec.get("mode", "rrtstar")),
    )
    timeout_s = spec.get("timeout_s")
    portfolio = spec.get("portfolio")
    if portfolio is not None and not isinstance(portfolio, (list, tuple)):
        raise InvalidRequest("'portfolio' must be a list of planner names")
    return PlanRequest(
        task=task,
        config=config,
        smooth=bool(spec.get("smooth", False)),
        timeout_s=float(timeout_s) if timeout_s is not None else None,
        request_id=request_id,
        portfolio=tuple(str(name) for name in portfolio) if portfolio else None,
    )


def request_from_wire(data: Dict, request_id: str = "") -> PlanRequest:
    """JSON body -> :class:`PlanRequest` (full or spec form).

    Raises :class:`~repro.errors.InvalidRequest` for anything malformed —
    the front end maps that to a 400 with the error message in the body.
    """
    from repro.io import task_from_dict

    if not isinstance(data, dict):
        raise InvalidRequest("request body must be a JSON object")
    request_id = str(data.get("request_id", request_id) or request_id)
    if "spec" in data:
        spec = data["spec"]
        if not isinstance(spec, dict):
            raise InvalidRequest("'spec' must be a JSON object")
        try:
            return spec_to_request(spec, request_id=request_id)
        except InvalidRequest:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidRequest(f"bad request spec: {exc}")
    if "task" not in data:
        raise InvalidRequest("request body needs 'task' (full) or 'spec'")
    if "lanes" in data:
        # The full form tolerates unknown keys, but ``lanes`` once chose a
        # different planner: a client asking for it is told, not served
        # another one.  Batched planning is ``config.wave_width``.
        raise InvalidRequest("'lanes' is not supported; set config.wave_width")
    try:
        task = task_from_dict(data["task"])
        config = PlannerConfig(**data.get("config", {}))
        timeout_s = data.get("timeout_s")
        portfolio = data.get("portfolio")
        if portfolio is not None and not isinstance(portfolio, (list, tuple)):
            raise InvalidRequest("'portfolio' must be a list of planner names")
        return PlanRequest(
            task=task,
            config=config,
            smooth=bool(data.get("smooth", False)),
            timeout_s=float(timeout_s) if timeout_s is not None else None,
            request_id=request_id,
            portfolio=tuple(str(name) for name in portfolio) if portfolio else None,
        )
    except InvalidRequest:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidRequest(f"bad request body: {exc}")


# ----------------------------------------------------------------- response


def response_to_wire(response: PlanResponse, include_path: bool = True) -> Dict:
    """``PlanResponse`` -> JSON envelope with the wire version stamped."""
    out = response.to_dict(include_path=include_path)
    out["wire_version"] = WIRE_VERSION
    return out


def response_from_wire(data: Dict) -> PlanResponse:
    """Inverse of :func:`response_to_wire`.

    Tolerates a missing ``wire_version`` (version-0 peers) but rejects a
    *newer* one and unknown statuses — both mean the peer speaks a schema
    this process does not.
    """
    if not isinstance(data, dict):
        raise ValueError("response body must be a JSON object")
    version = int(data.get("wire_version", WIRE_VERSION))
    if version > WIRE_VERSION:
        raise ValueError(
            f"wire version {version} is newer than supported ({WIRE_VERSION})"
        )
    status = data.get("status")
    if status not in STATUSES:
        raise ValueError(f"unknown response status {status!r}")
    payload = dict(data)
    payload.pop("wire_version", None)
    return PlanResponse.from_dict(payload)


def error_body(status: str, message: str, request_id: str = "") -> Dict:
    """Envelope for edge-synthesised failures (parse errors, shed, ...)."""
    response = PlanResponse(request_id=request_id, status=status, error=message)
    return response_to_wire(response, include_path=False)
