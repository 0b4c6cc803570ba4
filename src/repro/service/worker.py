"""The fleet worker: a thin pull-schedule-post loop.

A worker is deliberately stateless and dumb: register with the
coordinator, then loop -- pull a :class:`~repro.service.wire.ShardLease`
(backing off while none is pending), schedule its loops on a local
session/engine, POST the canonical ``shard_result`` envelope back, and
heartbeat between loops so the coordinator knows the shard is alive.
Every deterministic knob (loops, configuration, machine, policy, budget
ratio) travels *inside* the lease, so any worker on any host
produces the byte-identical envelope the coordinator would have computed
itself; the coordinator persists it through its
:class:`~repro.eval.shards.ResultStore` and the distributed run's
``runs_digest`` matches the single-process one.

Failure behaviour:

* HTTP blips retry with bounded backoff (the same retrying client the
  ``repro submit`` poller uses), so a coordinator restart does not kill
  the fleet.
* A heartbeat answered ``extended=False`` means the lease was reaped
  (this worker was too slow and the shard reassigned); the worker
  abandons the shard immediately instead of wasting cycles on a result
  that would be stale.
* A scheduling error is reported back (``error=`` on the complete call)
  so the coordinator requeues the shard at once instead of waiting out
  the lease timeout.

``repro worker --url URL`` is the CLI wrapper; :func:`run_worker` is the
in-process entry point tests and embedders use (``stop=`` takes a
``threading.Event``).
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.eval.metrics import LoopRun
from repro.eval.shards import ShardResult
from repro.service.http import post_json
from repro.service.wire import ShardLease

__all__ = ["WorkerStats", "run_worker"]

#: Consecutive empty lease polls are backed off up to this many seconds.
MAX_IDLE_BACKOFF_S: float = 2.0

_log = logging.getLogger("repro.service.worker")


class _LeaseLost(Exception):
    """The coordinator reaped our lease mid-shard; abandon the work."""


@dataclass
class WorkerStats:
    """What one :func:`run_worker` invocation did."""

    worker_id: str = ""
    n_leases: int = 0
    n_completed: int = 0
    n_loops: int = 0
    #: Completions the coordinator acknowledged as stale (someone else
    #: finished the shard first -- typically after this worker stalled).
    n_stale: int = 0
    #: Leases abandoned because a heartbeat came back ``extended=False``.
    n_lost: int = 0
    #: Leases handed back with a scheduling error.
    n_errors: int = 0
    errors: List[str] = field(default_factory=list)


def run_worker(
    url: str,
    *,
    name: Optional[str] = None,
    jobs: int = 1,
    cache=None,
    poll_interval: float = 0.5,
    heartbeat_interval: Optional[float] = None,
    max_leases: Optional[int] = None,
    idle_exit_s: Optional[float] = None,
    stop: Optional[threading.Event] = None,
    timeout: float = 10.0,
    retries: int = 4,
    progress: Optional[Callable[[str], None]] = None,
    clock: Callable[[], float] = time.monotonic,
) -> WorkerStats:
    """Run one worker loop against a coordinator at ``url``.

    Returns when ``stop`` is set, ``max_leases`` shards have been
    completed, or the coordinator has been idle for ``idle_exit_s``
    seconds (all optional -- with none given, the loop runs until the
    process dies, which is exactly the crash model the lease timeout
    covers).

    ``jobs``/``cache`` configure the *local* scheduling engine only; the
    deterministic knobs come from each lease.  ``heartbeat_interval``
    defaults to a third of the coordinator's lease timeout.
    """
    from repro.eval.cache import EvalCache

    base = url.rstrip("/")
    stats = WorkerStats()
    say = progress or (lambda message: None)
    eval_cache: Optional[EvalCache] = cache

    registered = post_json(
        f"{base}/v2/workers/register", {"name": name},
        timeout=timeout, retries=retries,
    )
    from repro import serialize

    status = serialize.from_dict(registered["worker"], expect_type="worker_status")
    stats.worker_id = status.worker_id
    say(f"registered as {status.worker_id} ({status.name}) at {base}")

    idle_since: Optional[float] = None
    idle_polls = 0
    logged_backoff_cap = False
    while not (stop is not None and stop.is_set()):
        if max_leases is not None and stats.n_leases >= max_leases:
            break
        response = post_json(
            f"{base}/v2/workers/lease", {"worker_id": stats.worker_id},
            timeout=timeout, retries=retries,
        )
        lease_envelope = response.get("lease")
        if lease_envelope is None:
            now = clock()
            if idle_since is None:
                idle_since = now
            if idle_exit_s is not None and now - idle_since >= idle_exit_s:
                say(f"idle for {idle_exit_s:.1f}s; exiting")
                break
            idle_polls += 1
            # Exponential idle backoff, capped; reset on real work.
            delay = min(poll_interval * (2 ** min(idle_polls - 1, 4)),
                        MAX_IDLE_BACKOFF_S)
            if delay >= MAX_IDLE_BACKOFF_S and not logged_backoff_cap:
                # Once per idle stretch: a fleet pointed at a dead or
                # workless coordinator is diagnosable from its logs.
                logged_backoff_cap = True
                _log.info(
                    "worker %s: no work at %s for %.1fs; idle backoff "
                    "reached its %.1fs cap",
                    stats.worker_id, base, now - idle_since,
                    MAX_IDLE_BACKOFF_S,
                )
            _interruptible_sleep(delay, stop)
            continue
        idle_since = None
        idle_polls = 0
        logged_backoff_cap = False
        lease = serialize.from_dict(lease_envelope, expect_type="shard_lease")
        assert isinstance(lease, ShardLease)
        stats.n_leases += 1
        say(f"leased shard {lease.shard_key[:12]} "
            f"({len(lease.loops)} loops, job {lease.job_id})")
        try:
            runs = _schedule_lease(
                base, lease, stats,
                jobs=jobs, cache=eval_cache, timeout=timeout,
                retries=retries, stop=stop, clock=clock,
                heartbeat_interval=heartbeat_interval,
            )
        except _LeaseLost:
            stats.n_lost += 1
            say(f"lease {lease.lease_id} was reaped; abandoning shard")
            continue
        except Exception as exc:  # noqa: BLE001 - reported to the coordinator
            stats.n_errors += 1
            message = f"{type(exc).__name__}: {exc}"
            stats.errors.append(message)
            say(f"shard {lease.shard_key[:12]} failed locally: {message}")
            post_json(
                f"{base}/v2/workers/complete",
                {"worker_id": stats.worker_id, "lease_id": lease.lease_id,
                 "error": message},
                timeout=timeout, retries=retries,
            )
            continue
        result = ShardResult(
            key=lease.shard_key,
            config_name=lease.config.name,
            positions=list(lease.positions),
            runs=runs,
        )
        ack = post_json(
            f"{base}/v2/workers/complete",
            {"worker_id": stats.worker_id, "lease_id": lease.lease_id,
             "result": serialize.to_dict(result)},
            timeout=timeout, retries=retries,
        )
        stats.n_completed += 1
        stats.n_loops += len(runs)
        if ack.get("stale"):
            stats.n_stale += 1
            say(f"shard {lease.shard_key[:12]} was already completed (stale)")
        else:
            say(f"completed shard {lease.shard_key[:12]}")
    return stats


def _schedule_lease(
    base: str,
    lease: ShardLease,
    stats: WorkerStats,
    *,
    jobs: int,
    cache,
    timeout: float,
    retries: int,
    stop: Optional[threading.Event],
    clock: Callable[[], float],
    heartbeat_interval: Optional[float],
) -> List[LoopRun]:
    """Schedule one lease's loops locally, heartbeating between loops.

    The heartbeat cadence defaults to a third of the lease timeout;
    loops are orders of magnitude shorter than that, so the lease stays
    renewed as long as the worker is making progress.  A heartbeat
    answered ``extended=False`` raises :class:`_LeaseLost`.
    """
    from repro.eval.experiments import iter_schedule_suite

    interval = (
        heartbeat_interval
        if heartbeat_interval is not None
        else max(lease.lease_timeout_s / 3.0, 0.05)
    )
    last_beat = clock()
    runs: List[Optional[LoopRun]] = [None] * len(lease.loops)
    for local, run, _cached in iter_schedule_suite(
        list(lease.loops),
        lease.config,
        machine=lease.machine,
        scale_to_clock=lease.scale_to_clock,
        budget_ratio=lease.budget_ratio,
        scheduler=lease.policy,
        jobs=jobs,
        cache=cache,
    ):
        runs[local] = run
        if stop is not None and stop.is_set():
            raise _LeaseLost()
        if clock() - last_beat >= interval:
            _beat(base, lease, stats, timeout=timeout, retries=retries)
            last_beat = clock()
    holes = [index for index, run in enumerate(runs) if run is None]
    if holes:  # pragma: no cover - iter_schedule_suite covers every position
        raise RuntimeError(f"lease {lease.lease_id} left positions {holes} unscheduled")
    return list(runs)


def _beat(base, lease, stats, *, timeout, retries) -> None:
    from repro import serialize

    payload = post_json(
        f"{base}/v2/workers/heartbeat",
        {"worker_id": stats.worker_id, "lease_id": lease.lease_id},
        timeout=timeout, retries=retries,
    )
    heartbeat = serialize.from_dict(payload, expect_type="lease_heartbeat")
    if not heartbeat.extended:
        raise _LeaseLost()


def _interruptible_sleep(seconds: float, stop: Optional[threading.Event]) -> None:
    if stop is not None:
        stop.wait(timeout=seconds)
    else:
        time.sleep(seconds)
