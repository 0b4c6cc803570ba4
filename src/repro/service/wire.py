"""Wire types of the coordinator/worker fleet protocol.

The distributed evaluation protocol (:mod:`repro.service.coordinator` /
:mod:`repro.service.worker`) moves three things over HTTP beyond the
``shard_result`` envelopes the checkpoint layer already defined:

* :class:`ShardLease` -- one unit of handed-out work: the shard's loops
  (serialized node by node, exactly like a corpus case), the
  configuration and machine they schedule against, every engine knob
  that affects the deterministic result (policy, budget ratio),
  and the lease bookkeeping (ids, deadline).  A worker needs nothing but
  this envelope and the base URL to produce the shard's canonical
  ``shard_result``.
* :class:`LeaseHeartbeat` -- the coordinator's answer to a heartbeat:
  whether the lease is still held (``extended``) and how long it has
  before it expires.  ``extended=False`` tells the worker its shard was
  reassigned (it took too long); the worker abandons the shard.
* :class:`WorkerStatus` -- one registered worker as the coordinator sees
  it (``GET /v2/workers``): identity, derived state, lease and
  completion counters.

All three are registered :mod:`repro.serialize` envelope types
(``shard_lease``, ``lease_heartbeat``, ``worker_status``), so they cross
the wire versioned and schema-validatable like every other result type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.ddg.loop import Loop
from repro.machine.config import MachineConfig, RFConfig
from repro.verify.corpus import loop_from_json, loop_to_json

__all__ = [
    "ShardLease",
    "LeaseHeartbeat",
    "WorkerStatus",
    "shard_lease_to_dict",
    "shard_lease_from_dict",
    "lease_heartbeat_to_dict",
    "lease_heartbeat_from_dict",
    "worker_status_to_dict",
    "worker_status_from_dict",
]


@dataclass(frozen=True)
class ShardLease:
    """One shard of work, leased to one worker until a deadline.

    Everything the deterministic schedule depends on travels inside the
    lease, so a worker is stateless: same loops + configuration +
    machine + knobs on any host produce the byte-identical
    ``shard_result`` the coordinator would have computed locally.
    """

    lease_id: str
    worker_id: str
    job_id: str
    shard_index: int
    shard_key: str
    positions: Tuple[int, ...]
    loops: Tuple[Loop, ...]
    config: RFConfig
    machine: MachineConfig
    policy: str = "mirs_hc"
    budget_ratio: float = 6.0
    scale_to_clock: bool = True
    #: Seconds the worker has (between renewals) before the coordinator
    #: reassigns the shard; workers derive their heartbeat cadence from it.
    lease_timeout_s: float = 60.0


@dataclass(frozen=True)
class LeaseHeartbeat:
    """The coordinator's verdict on one heartbeat."""

    lease_id: str
    worker_id: str
    #: True: the lease deadline was pushed out; keep going.  False: the
    #: lease is no longer held (expired/reassigned/unknown) -- abandon
    #: the shard, its result would be stale.
    extended: bool
    #: Seconds until the (possibly renewed) lease expires; 0 when not held.
    remaining_s: float = 0.0


@dataclass
class WorkerStatus:
    """One registered worker, as reported by ``GET /v2/workers``."""

    worker_id: str
    name: str
    #: ``idle`` (registered, no lease), ``leased`` (working a shard) or
    #: ``lost`` (silent for several lease timeouts; its leases were or
    #: will be reassigned).
    state: str = "idle"
    lease_id: Optional[str] = None
    #: Seconds since the worker last contacted the coordinator.
    last_seen_s: float = 0.0
    n_completed: int = 0
    #: Leases this worker lost to the expiry reaper.
    n_expired: int = 0
    #: Leases the worker handed back with an error (requeued immediately).
    n_failed: int = 0


def shard_lease_to_dict(lease: ShardLease) -> Dict:
    """The ``data`` payload of a serialized :class:`ShardLease`."""
    return {
        "lease_id": lease.lease_id,
        "worker_id": lease.worker_id,
        "job_id": lease.job_id,
        "shard_index": lease.shard_index,
        "shard_key": lease.shard_key,
        "positions": list(lease.positions),
        "loops": [loop_to_json(loop) for loop in lease.loops],
        "config": lease.config.to_dict(),
        "machine": lease.machine.to_dict(),
        "policy": lease.policy,
        "budget_ratio": lease.budget_ratio,
        "scale_to_clock": lease.scale_to_clock,
        "lease_timeout_s": lease.lease_timeout_s,
    }


def shard_lease_from_dict(payload: Dict) -> ShardLease:
    """Rebuild a :class:`ShardLease` from its ``data`` payload."""
    return ShardLease(
        lease_id=payload["lease_id"],
        worker_id=payload["worker_id"],
        job_id=payload.get("job_id", ""),
        shard_index=int(payload.get("shard_index", 0)),
        shard_key=payload["shard_key"],
        positions=tuple(int(p) for p in payload.get("positions", ())),
        loops=tuple(loop_from_json(entry) for entry in payload.get("loops", ())),
        config=RFConfig.from_dict(payload["config"]),
        machine=MachineConfig.from_dict(payload["machine"]),
        policy=payload.get("policy", "mirs_hc"),
        budget_ratio=float(payload.get("budget_ratio", 6.0)),
        scale_to_clock=bool(payload.get("scale_to_clock", True)),
        lease_timeout_s=float(payload.get("lease_timeout_s", 60.0)),
    )


def lease_heartbeat_to_dict(heartbeat: LeaseHeartbeat) -> Dict:
    """The ``data`` payload of a serialized :class:`LeaseHeartbeat`."""
    return {
        "lease_id": heartbeat.lease_id,
        "worker_id": heartbeat.worker_id,
        "extended": heartbeat.extended,
        "remaining_s": heartbeat.remaining_s,
    }


def lease_heartbeat_from_dict(payload: Dict) -> LeaseHeartbeat:
    """Rebuild a :class:`LeaseHeartbeat` from its ``data`` payload."""
    return LeaseHeartbeat(
        lease_id=payload["lease_id"],
        worker_id=payload["worker_id"],
        extended=bool(payload["extended"]),
        remaining_s=float(payload.get("remaining_s", 0.0)),
    )


def worker_status_to_dict(status: WorkerStatus) -> Dict:
    """The ``data`` payload of a serialized :class:`WorkerStatus`."""
    return {
        "worker_id": status.worker_id,
        "name": status.name,
        "state": status.state,
        "lease_id": status.lease_id,
        "last_seen_s": status.last_seen_s,
        "n_completed": status.n_completed,
        "n_expired": status.n_expired,
        "n_failed": status.n_failed,
    }


def worker_status_from_dict(payload: Dict) -> WorkerStatus:
    """Rebuild a :class:`WorkerStatus` from its ``data`` payload."""
    return WorkerStatus(
        worker_id=payload["worker_id"],
        name=payload.get("name", ""),
        state=payload.get("state", "idle"),
        lease_id=payload.get("lease_id"),
        last_seen_s=float(payload.get("last_seen_s", 0.0)),
        n_completed=int(payload.get("n_completed", 0)),
        n_expired=int(payload.get("n_expired", 0)),
        n_failed=int(payload.get("n_failed", 0)),
    )
